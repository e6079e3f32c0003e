//! Bench (in-repo harness) for E4: MANGROVE publish-pipeline throughput
//! (parse HTML → extract annotations → republish into the triple store)
//! and application render latency right after a publish.

use revere_util::criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use revere_mangrove::{CourseCalendar, Mangrove, MangroveSchema, PhoneDirectory, WhosWho};
use revere_workload::PageGenerator;

fn bench_publish(c: &mut Criterion) {
    let pages = PageGenerator { seed: 4, courses: 40, people: 40, ..Default::default() }.generate();
    let mut group = c.benchmark_group("mangrove_publish");
    group.bench_function("publish_one_page", |b| {
        let mut m = Mangrove::new(MangroveSchema::department());
        let mut i = 0usize;
        b.iter(|| {
            let p = &pages[i % pages.len()];
            i += 1;
            m.publish(&p.url, std::hint::black_box(&p.html))
        });
    });
    for site in [20usize, 80] {
        group.bench_with_input(BenchmarkId::new("publish_site", site), &site, |b, &site| {
            b.iter(|| {
                let mut m = Mangrove::new(MangroveSchema::department());
                for p in pages.iter().take(site) {
                    m.publish(&p.url, &p.html);
                }
                m.store.len()
            });
        });
    }
    group.finish();

    // Render latency of the instant-gratification views over a loaded store.
    let mut m = Mangrove::new(MangroveSchema::department());
    for p in &pages {
        m.publish(&p.url, &p.html);
    }
    let mut group = c.benchmark_group("instant_gratification_render");
    group.bench_function("course_calendar", |b| {
        b.iter(|| CourseCalendar::default().render(std::hint::black_box(&m.store)))
    });
    group.bench_function("phone_directory", |b| {
        b.iter(|| PhoneDirectory::default().render(std::hint::black_box(&m.store)))
    });
    group.bench_function("whos_who", |b| {
        b.iter(|| WhosWho::default().render(std::hint::black_box(&m.store)))
    });
    group.finish();
}

criterion_group!(benches, bench_publish);
criterion_main!(benches);
