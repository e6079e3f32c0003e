//! A lenient HTML parser.
//!
//! MANGROVE annotates pages people already have, and real pages are rarely
//! well-formed XML. This parser accepts the common deviations: void
//! elements (`<br>`, `<img>`, ...), optional end tags (`<li>`, `<p>`,
//! `<td>`, `<tr>`), unquoted attribute values, boolean attributes,
//! mismatched case, and stray end tags. The output is a
//! [`revere_xml::Document`], so annotation extraction shares the XML
//! substrate's tree machinery.

use revere_xml::{Document, NodeId};

/// Elements that never have content.
const VOID: &[&str] = &[
    "br", "img", "hr", "meta", "input", "link", "area", "base", "col", "embed", "source",
    "track", "wbr",
];

/// Elements whose end tag is optional: opening one of `closes` implicitly
/// closes an open element of the same entry.
fn implicitly_closes(open: &str, next: &str) -> bool {
    match open {
        "li" => next == "li",
        "p" => matches!(next, "p" | "div" | "ul" | "ol" | "table" | "h1" | "h2" | "h3"),
        "td" | "th" => matches!(next, "td" | "th" | "tr"),
        "tr" => next == "tr",
        "option" => next == "option",
        _ => false,
    }
}

/// Parse lenient HTML into a document. Never fails: unparseable fragments
/// degrade to text. The root element is always `html` (synthesized if the
/// input lacks one).
pub fn parse_html(input: &str) -> Document {
    let mut doc = Document::new("html");
    let root = doc.root();
    let mut stack: Vec<(String, NodeId)> = vec![("html".to_string(), root)];
    let bytes = input.as_bytes();
    let mut i = 0usize;
    let mut text_start = 0usize;

    while i < bytes.len() {
        if bytes[i] != b'<' {
            i += 1;
            continue;
        }
        // Flush pending text.
        let text = &input[text_start..i];
        if !text.trim().is_empty() {
            let (_, parent) = stack.last().expect("stack never empty");
            doc.add_text(*parent, decode_entities(text));
        }
        // Comment?
        if input[i..].starts_with("<!--") {
            match input[i..].find("-->") {
                Some(end) => i += end + 3,
                None => i = bytes.len(),
            }
            text_start = i;
            continue;
        }
        // Doctype or other declaration?
        if input[i..].starts_with("<!") || input[i..].starts_with("<?") {
            match input[i..].find('>') {
                Some(end) => i += end + 1,
                None => i = bytes.len(),
            }
            text_start = i;
            continue;
        }
        // Find the tag end.
        let Some(rel_end) = tag_end(&input[i..]) else {
            // Unterminated tag: treat the rest as text.
            let (_, parent) = stack.last().expect("stack never empty");
            doc.add_text(*parent, decode_entities(&input[i..]));
            i = bytes.len();
            text_start = i;
            continue;
        };
        let tag_src = &input[i + 1..i + rel_end];
        i += rel_end + 1;
        text_start = i;

        if let Some(name) = tag_src.strip_prefix('/') {
            // End tag: pop to the matching element if present.
            let name = name.trim().to_ascii_lowercase();
            if let Some(pos) = stack.iter().rposition(|(n, _)| *n == name) {
                if pos > 0 {
                    stack.truncate(pos);
                }
            }
            // Stray end tag: ignored.
            continue;
        }

        let self_closing = tag_src.ends_with('/');
        let tag_src = tag_src.trim_end_matches('/');
        let (name, attrs) = parse_tag(tag_src);
        if name.is_empty() {
            continue;
        }
        // <html> when a root already exists: merge attributes into root.
        if name == "html" {
            for (k, v) in attrs {
                doc.set_attr(root, k, v);
            }
            continue;
        }
        // Implicit closes.
        while stack.len() > 1 {
            let (open, _) = stack.last().expect("non-empty");
            if implicitly_closes(open, &name) {
                stack.pop();
            } else {
                break;
            }
        }
        let (_, parent) = stack.last().expect("stack never empty");
        let el = doc.add_element(*parent, name.clone());
        for (k, v) in attrs {
            doc.set_attr(el, k, v);
        }
        if !self_closing && !VOID.contains(&name.as_str()) {
            stack.push((name.clone(), el));
        }
        // Raw-text elements: script/style content up to the end tag.
        if name == "script" || name == "style" {
            let close = [b"</", name.as_bytes()].concat();
            let end = bytes[i..]
                .windows(close.len())
                .position(|w| w.eq_ignore_ascii_case(&close));
            if let Some(end) = end {
                let content = &input[i..i + end];
                if !content.trim().is_empty() {
                    doc.add_text(el, content.to_string());
                }
                i += end;
                text_start = i;
            }
            stack.pop();
        }
    }
    // Trailing text.
    let text = &input[text_start..];
    if !text.trim().is_empty() {
        let (_, parent) = stack.last().expect("stack never empty");
        doc.add_text(*parent, decode_entities(text));
    }
    doc
}

/// Where the tag starting `src` ends: its first `>` outside a quoted
/// attribute value (a quote opens a value only right after `=`, as in
/// [`parse_tag`]). A value whose quote never closes ends at the first `>`.
fn tag_end(src: &str) -> Option<usize> {
    let mut from = 0;
    loop {
        let at = from + src[from..].find(['>', '"', '\''])?;
        let c = src.as_bytes()[at];
        if c == b'>' {
            return Some(at);
        }
        from = at + 1;
        if src[..at].trim_end().ends_with('=') {
            match src[from..].find(c as char) {
                Some(len) => from += len + 1,
                None => return src.find('>'),
            }
        }
    }
}

/// Split `name attr="v" flag attr2=bare` into a lowercase name plus
/// attribute pairs. Attribute *names* are lowercased except the `mg:`
/// annotation namespace, which is preserved case-insensitively as given.
fn parse_tag(src: &str) -> (String, Vec<(String, String)>) {
    let src = src.trim();
    let mut chars = src.char_indices().peekable();
    let mut name_end = src.len();
    for (idx, c) in chars.by_ref() {
        if c.is_whitespace() {
            name_end = idx;
            break;
        }
    }
    let name = src[..name_end].to_ascii_lowercase();
    let mut attrs = Vec::new();
    let rest = &src[name_end..];
    let mut i = 0usize;
    let b = rest.as_bytes();
    while i < b.len() {
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= b.len() {
            break;
        }
        let key_start = i;
        while i < b.len() && !b[i].is_ascii_whitespace() && b[i] != b'=' {
            i += 1;
        }
        let key = rest[key_start..i].to_ascii_lowercase();
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        if i < b.len() && b[i] == b'=' {
            i += 1;
            while i < b.len() && b[i].is_ascii_whitespace() {
                i += 1;
            }
            let value = if i < b.len() && (b[i] == b'"' || b[i] == b'\'') {
                let quote = b[i];
                i += 1;
                let vstart = i;
                while i < b.len() && b[i] != quote {
                    i += 1;
                }
                let v = &rest[vstart..i];
                if i < b.len() {
                    i += 1;
                }
                v
            } else {
                let vstart = i;
                while i < b.len() && !b[i].is_ascii_whitespace() {
                    i += 1;
                }
                &rest[vstart..i]
            };
            if !key.is_empty() {
                attrs.push((key, decode_entities(value)));
            }
        } else if !key.is_empty() {
            // Boolean attribute.
            attrs.push((key, String::new()));
        }
    }
    (name, attrs)
}

/// Decode the handful of entities that matter in page text, in one pass:
/// `&amp;lt;` is the text `&lt;`, not `<`.
fn decode_entities(s: &str) -> String {
    const ENTITIES: [(&str, char); 6] =
        [("amp;", '&'), ("lt;", '<'), ("gt;", '>'), ("quot;", '"'), ("nbsp;", ' '), ("#39;", '\'')];
    let mut pieces = s.split('&');
    let mut out = String::from(pieces.next().unwrap_or_default());
    for piece in pieces {
        let (c, rest) = (ENTITIES.iter().find_map(|(e, c)| Some((*c, piece.strip_prefix(e)?))))
            .unwrap_or(('&', piece));
        out.push(c);
        out.push_str(rest);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use revere_xml::Path;

    #[test]
    fn parses_wellformed_page() {
        let d = parse_html("<html><body><h1>Title</h1><p>Hello</p></body></html>");
        let h1 = Path::parse("//h1").unwrap().eval(&d, d.root());
        assert_eq!(d.text_content(h1[0]), "Title");
    }

    #[test]
    fn unclosed_li_and_p() {
        let d = parse_html("<ul><li>one<li>two<li>three</ul><p>a<p>b");
        let lis = Path::parse("//li").unwrap().eval(&d, d.root());
        assert_eq!(lis.len(), 3);
        assert_eq!(d.text_content(lis[1]), "two");
        let ps = Path::parse("//p").unwrap().eval(&d, d.root());
        assert_eq!(ps.len(), 2);
    }

    #[test]
    fn table_with_optional_end_tags() {
        let d = parse_html("<table><tr><td>a<td>b<tr><td>c</table>");
        let rows = Path::parse("//tr").unwrap().eval(&d, d.root());
        assert_eq!(rows.len(), 2);
        let cells = Path::parse("//td").unwrap().eval(&d, d.root());
        assert_eq!(cells.len(), 3);
    }

    #[test]
    fn void_elements_do_not_swallow_content() {
        let d = parse_html("<p>line<br>next<img src=x>end</p>");
        let p = Path::parse("//p").unwrap().eval(&d, d.root())[0];
        assert_eq!(d.text_content(p), "linenextend");
    }

    #[test]
    fn unquoted_and_boolean_attributes() {
        let d = parse_html("<input type=checkbox checked><a href=http://x.org/y>l</a>");
        let input = Path::parse("//input").unwrap().eval(&d, d.root())[0];
        assert_eq!(d.attr(input, "type"), Some("checkbox"));
        assert_eq!(d.attr(input, "checked"), Some(""));
        let a = Path::parse("//a").unwrap().eval(&d, d.root())[0];
        assert_eq!(d.attr(a, "href"), Some("http://x.org/y"));
    }

    #[test]
    fn mg_namespace_attributes_survive() {
        let d = parse_html(r#"<div mg:about="course/c1"><span mg:tag="course.title">DB</span></div>"#);
        let span = Path::parse("//span").unwrap().eval(&d, d.root())[0];
        assert_eq!(d.attr(span, "mg:tag"), Some("course.title"));
    }

    #[test]
    fn stray_end_tags_ignored() {
        let d = parse_html("<div>a</span></div>b</p>");
        assert!(d.text_content(d.root()).contains('a'));
        assert!(d.text_content(d.root()).contains('b'));
    }

    #[test]
    fn comments_and_doctype_skipped() {
        let d = parse_html("<!DOCTYPE html><!-- hi --><body>x</body>");
        assert_eq!(d.text_content(d.root()).trim(), "x");
    }

    #[test]
    fn entities_decoded_in_text_and_attrs() {
        let d = parse_html(r#"<p title="a &amp; b">1 &lt; 2</p>"#);
        let p = Path::parse("//p").unwrap().eval(&d, d.root())[0];
        assert_eq!(d.text_content(p), "1 < 2");
        assert_eq!(d.attr(p, "title"), Some("a & b"));
    }

    #[test]
    fn quoted_attribute_values_may_hold_markup_and_entities_decode_once() {
        let d = parse_html(r#"<p title = "a>b" alt='<c>' x=y>z<i>1 &amp;lt; 2</i></p>"#);
        let p = Path::parse("//p").unwrap().eval(&d, d.root())[0];
        assert_eq!(d.attr(p, "title"), Some("a>b"));
        assert_eq!(d.attr(p, "alt"), Some("<c>"));
        assert_eq!(d.attr(p, "x"), Some("y"));
        assert_eq!(d.text_content(p), "z1 &lt; 2");
        // An unclosed quote still ends the tag at its first `>`.
        let d = parse_html(r#"<p title="a>b</p>"#);
        let p = Path::parse("//p").unwrap().eval(&d, d.root())[0];
        assert_eq!(d.attr(p, "title"), Some("a"));
        assert_eq!(d.text_content(p), "b");
    }

    #[test]
    fn script_content_not_parsed_as_markup() {
        let d = parse_html("<script>if (a < b) { x(); }</script><p>after</p>");
        let ps = Path::parse("//p").unwrap().eval(&d, d.root());
        assert_eq!(ps.len(), 1);
    }

    #[test]
    fn many_raw_text_blocks_end_at_their_own_close_tag_in_any_case() {
        // 2 000 blocks: the close tag is searched from each block's start,
        // never over a lowercased copy of the rest of the page.
        let mut page = String::from("<body>");
        for k in 0..2000 {
            let close = if k % 2 == 0 { "</SCRIPT>" } else { "</ScRiPt >" };
            page.push_str(&format!("<script>if (é < {k}) {{ \"</b>\" }}{close}<p>p{k}</p>"));
        }
        page.push_str("<STYLE>p > b { }</stYLE><i>end</i></body>");
        let d = parse_html(&page);
        let scripts = Path::parse("//script").unwrap().eval(&d, d.root());
        assert_eq!(scripts.len(), 2000);
        for k in [0, 1, 999, 1999] {
            assert_eq!(d.text_content(scripts[k]), format!("if (é < {k}) {{ \"</b>\" }}"));
        }
        let ps = Path::parse("//p").unwrap().eval(&d, d.root());
        assert_eq!(ps.len(), 2000);
        assert_eq!(d.text_content(ps[1999]), "p1999");
        assert!(Path::parse("//b").unwrap().eval(&d, d.root()).is_empty());
        let style = Path::parse("//style").unwrap().eval(&d, d.root());
        assert_eq!(d.text_content(style[0]), "p > b { }");
        let i = Path::parse("//body/i").unwrap().eval(&d, d.root());
        assert_eq!(d.text_content(i[0]), "end");
    }

    #[test]
    fn never_panics_on_garbage() {
        for garbage in ["<", "<<<>>>", "<a", "</", "<a b=", "text only", "", "<a b='unterminated"] {
            let _ = parse_html(garbage);
        }
    }

    #[test]
    fn mixed_case_tags_normalized() {
        let d = parse_html("<DIV><SpAn>x</sPaN></div>");
        assert_eq!(Path::parse("//span").unwrap().eval(&d, d.root()).len(), 1);
    }
}
