//! Offline stand-in for `serde_derive` — real code generation.
//!
//! The build container has no crate registry, so these derives
//! implement (without `syn`/`quote`) the subset of serde's codegen this
//! workspace uses:
//!
//! * named structs, tuple/newtype structs, unit structs,
//! * enums with unit, newtype, tuple, and struct variants
//!   (externally tagged: `"Variant"` / `{"Variant": …}`),
//! * `#[serde(rename = "…")]` on fields and variants,
//! * `#[serde(rename_all = "…")]` on containers
//!   (`lowercase`, `snake_case`, `kebab-case`, `camelCase`,
//!   `SCREAMING_SNAKE_CASE`),
//! * `#[serde(flatten)]` on struct fields (the field's object keys are
//!   merged into the parent object),
//! * `#[serde(default)]` (missing field → `Default::default()`),
//! * `#[serde(skip)]` (never serialized; deserialized as default),
//! * `#[serde(transparent)]` — a no-op, since newtype structs already
//!   serialize as their inner value (serde's own default).
//!
//! Generated `Serialize` impls build a `serde::value::Value` tree;
//! `Deserialize` impls walk one, threading field names and array
//! indices into `serde::de::DeError` so failures report the exact JSON
//! path of the offending value. `Option` fields serialize as absent
//! when `None` and read missing keys as `None`.
//!
//! Unsupported serde attributes are ignored (this is a shim, not a
//! validator); `#[serde(tag = "…")]` (internal tagging) panics with a
//! clear message since silently mis-encoding would corrupt data.

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::iter::Peekable;

// ---------------------------------------------------------------------
// Parsed model
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum RenameAll {
    Lowercase,
    SnakeCase,
    KebabCase,
    CamelCase,
    ScreamingSnake,
}

impl RenameAll {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "lowercase" => Some(Self::Lowercase),
            "snake_case" => Some(Self::SnakeCase),
            "kebab-case" => Some(Self::KebabCase),
            "camelCase" => Some(Self::CamelCase),
            "SCREAMING_SNAKE_CASE" => Some(Self::ScreamingSnake),
            _ => None,
        }
    }

    fn apply(self, name: &str) -> String {
        match self {
            Self::Lowercase => name.to_lowercase(),
            Self::SnakeCase => word_split(name, '_', false),
            Self::KebabCase => word_split(name, '-', false),
            Self::ScreamingSnake => word_split(name, '_', true),
            Self::CamelCase => {
                let mut chars = name.chars();
                match chars.next() {
                    Some(c) => c.to_lowercase().chain(chars).collect(),
                    None => String::new(),
                }
            }
        }
    }
}

/// Splits `PascalCase`/`snake_case` input on case boundaries, joining
/// with `sep` in the requested case.
fn word_split(name: &str, sep: char, upper: bool) -> String {
    let mut out = String::new();
    for (i, c) in name.chars().enumerate() {
        if c.is_uppercase() && i > 0 {
            out.push(sep);
        }
        if upper {
            out.extend(c.to_uppercase());
        } else {
            out.extend(c.to_lowercase());
        }
    }
    out
}

#[derive(Default, Clone)]
struct SerdeAttrs {
    rename: Option<String>,
    rename_all: Option<RenameAll>,
    flatten: bool,
    default: bool,
    skip: bool,
}

struct Field {
    name: String,
    /// The field's type, as source text — used to query a flattened
    /// field's key set in generated code.
    ty: String,
    attrs: SerdeAttrs,
}

impl Field {
    fn key(&self, container: Option<RenameAll>) -> String {
        match (&self.attrs.rename, container) {
            (Some(r), _) => r.clone(),
            (None, Some(ra)) => ra.apply(&self.name),
            (None, None) => self.name.clone(),
        }
    }
}

struct Variant {
    name: String,
    attrs: SerdeAttrs,
    data: VariantData,
}

impl Variant {
    fn key(&self, container: Option<RenameAll>) -> String {
        match (&self.attrs.rename, container) {
            (Some(r), _) => r.clone(),
            (None, Some(ra)) => ra.apply(&self.name),
            (None, None) => self.name.clone(),
        }
    }
}

enum VariantData {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

enum Body {
    Named(Vec<Field>),
    Tuple(usize),
    Unit,
    Enum(Vec<Variant>),
}

struct Container {
    name: String,
    /// Generic parameters as declared, bounds included and defaults
    /// stripped, e.g. `T: Clone` for `T: Clone = u8`.
    params: String,
    /// Generic arguments for the self type, e.g. `T`.
    args: String,
    attrs: SerdeAttrs,
    body: Body,
}

impl Container {
    fn self_ty(&self) -> String {
        if self.args.is_empty() {
            self.name.clone()
        } else {
            format!("{}<{}>", self.name, self.args)
        }
    }

    /// Extra `where` bounds requiring every type parameter to implement
    /// `bound` (best effort: lifetimes are excluded by their tick).
    fn type_param_bounds(&self, bound: &str) -> String {
        if self.args.is_empty() {
            return String::new();
        }
        let clauses: Vec<String> = self
            .args
            .split(',')
            .map(str::trim)
            .filter(|a| !a.is_empty() && !a.starts_with('\''))
            .map(|a| format!("{a}: {bound}"))
            .collect();
        if clauses.is_empty() {
            String::new()
        } else {
            format!("where {}", clauses.join(", "))
        }
    }
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

type Tokens = Peekable<proc_macro::token_stream::IntoIter>;

/// Consumes one `#[…]` attribute group, folding any `serde(...)` keys
/// into `attrs`.
fn consume_attr(tokens: &mut Tokens, attrs: &mut SerdeAttrs) {
    // Caller consumed `#`; `![…]` (inner attr) or `[…]` follows.
    if let Some(TokenTree::Punct(p)) = tokens.peek() {
        if p.as_char() == '!' {
            tokens.next();
        }
    }
    let Some(TokenTree::Group(g)) = tokens.next() else {
        return;
    };
    let mut inner = g.stream().into_iter().peekable();
    let Some(TokenTree::Ident(head)) = inner.next() else {
        return;
    };
    if head.to_string() != "serde" {
        return;
    }
    let Some(TokenTree::Group(list)) = inner.next() else {
        return;
    };
    let mut items = list.stream().into_iter().peekable();
    while let Some(tt) = items.next() {
        let TokenTree::Ident(key) = tt else { continue };
        let key = key.to_string();
        let value = match items.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                items.next();
                match items.next() {
                    Some(TokenTree::Literal(lit)) => Some(strip_quotes(&lit.to_string())),
                    _ => None,
                }
            }
            _ => None,
        };
        match (key.as_str(), value) {
            ("rename", Some(v)) => attrs.rename = Some(v),
            ("rename_all", Some(v)) => attrs.rename_all = RenameAll::parse(&v),
            ("flatten", _) => attrs.flatten = true,
            ("default", _) => attrs.default = true,
            ("skip" | "skip_serializing" | "skip_deserializing", _) => attrs.skip = true,
            ("tag", _) => panic!(
                "serde shim derive: #[serde(tag = …)] (internal tagging) is not supported; \
                 use the default externally-tagged representation"
            ),
            // transparent, deny_unknown_fields, skip_serializing_if, …:
            // intentionally ignored (see crate docs).
            _ => {}
        }
    }
}

fn strip_quotes(lit: &str) -> String {
    lit.trim_matches('"').to_owned()
}

/// Skips `pub` / `pub(crate)` visibility tokens.
fn skip_visibility(tokens: &mut Tokens) {
    if let Some(TokenTree::Ident(i)) = tokens.peek() {
        if i.to_string() == "pub" {
            tokens.next();
            if let Some(TokenTree::Group(g)) = tokens.peek() {
                if g.delimiter() == Delimiter::Parenthesis {
                    tokens.next();
                }
            }
        }
    }
}

/// Collects a type (or expression) until a top-level `,`, tracking
/// `<>` depth. Consumes the trailing comma if present and returns the
/// collected source text.
fn collect_until_comma(tokens: &mut Tokens) -> String {
    let mut depth: usize = 0;
    let mut prev_dash = false;
    let mut out: Vec<String> = Vec::new();
    while let Some(tt) = tokens.peek() {
        if let TokenTree::Punct(p) = tt {
            match p.as_char() {
                '<' => depth += 1,
                // `->` return arrows must not close an angle bracket.
                '>' if !prev_dash => depth = depth.saturating_sub(1),
                ',' if depth == 0 => {
                    tokens.next();
                    return out.join(" ");
                }
                _ => {}
            }
            prev_dash = p.as_char() == '-';
        } else {
            prev_dash = false;
        }
        out.push(tt.to_string());
        tokens.next();
    }
    out.join(" ")
}

/// Parses the fields of a `{ … }` struct body (or struct variant).
fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let mut tokens: Tokens = stream.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        let mut attrs = SerdeAttrs::default();
        loop {
            match tokens.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    tokens.next();
                    consume_attr(&mut tokens, &mut attrs);
                }
                _ => break,
            }
        }
        skip_visibility(&mut tokens);
        let Some(TokenTree::Ident(name)) = tokens.next() else {
            break;
        };
        let name = name.to_string();
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            _ => panic!("serde shim derive: expected `:` after field `{name}`"),
        }
        let ty = collect_until_comma(&mut tokens);
        fields.push(Field { name, ty, attrs });
    }
    fields
}

/// Counts the fields of a `( … )` tuple body.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut depth: usize = 0;
    let mut prev_dash = false;
    let mut fields = 0usize;
    let mut pending = false;
    for tt in stream {
        match &tt {
            TokenTree::Punct(p) => {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' if !prev_dash => depth = depth.saturating_sub(1),
                    ',' if depth == 0 => {
                        if pending {
                            fields += 1;
                            pending = false;
                        }
                        prev_dash = false;
                        continue;
                    }
                    _ => {}
                }
                prev_dash = p.as_char() == '-';
                pending = true;
            }
            _ => {
                prev_dash = false;
                pending = true;
            }
        }
    }
    if pending {
        fields += 1;
    }
    fields
}

/// Parses the variants of an `enum { … }` body.
fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut tokens: Tokens = stream.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        let mut attrs = SerdeAttrs::default();
        loop {
            match tokens.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    tokens.next();
                    consume_attr(&mut tokens, &mut attrs);
                }
                _ => break,
            }
        }
        let Some(TokenTree::Ident(name)) = tokens.next() else {
            break;
        };
        let name = name.to_string();
        let data = match tokens.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream());
                tokens.next();
                VariantData::Struct(fields)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let count = count_tuple_fields(g.stream());
                tokens.next();
                VariantData::Tuple(count)
            }
            _ => VariantData::Unit,
        };
        // Skip an optional `= discriminant`, then the separating comma.
        let _ = collect_until_comma(&mut tokens);
        variants.push(Variant { name, attrs, data });
    }
    variants
}

/// Parses the whole derive input into the container model.
fn parse_container(input: TokenStream) -> Container {
    let mut tokens: Tokens = input.into_iter().peekable();
    let mut attrs = SerdeAttrs::default();
    let mut is_enum = false;
    let name;
    loop {
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                consume_attr(&mut tokens, &mut attrs);
            }
            Some(TokenTree::Ident(i)) => match i.to_string().as_str() {
                "pub" => {
                    if let Some(TokenTree::Group(g)) = tokens.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            tokens.next();
                        }
                    }
                }
                "struct" | "union" => {
                    match tokens.next() {
                        Some(TokenTree::Ident(n)) => name = n.to_string(),
                        _ => panic!("serde shim derive: struct without a name"),
                    }
                    break;
                }
                "enum" => {
                    is_enum = true;
                    match tokens.next() {
                        Some(TokenTree::Ident(n)) => name = n.to_string(),
                        _ => panic!("serde shim derive: enum without a name"),
                    }
                    break;
                }
                _ => {}
            },
            Some(_) => {}
            None => panic!("serde shim derive: could not find item name"),
        }
    }

    let (params, args) = parse_generics(&mut tokens);

    let body = if is_enum {
        match tokens.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::Enum(parse_variants(g.stream()))
            }
            _ => panic!("serde shim derive: enum `{name}` has no body"),
        }
    } else {
        match tokens.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Body::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Body::Unit,
            Some(TokenTree::Ident(i)) if i.to_string() == "where" => {
                panic!("serde shim derive: `where` clauses are not supported (struct `{name}`)")
            }
            _ => panic!("serde shim derive: unrecognized struct body for `{name}`"),
        }
    };

    Container {
        name,
        params,
        args,
        attrs,
        body,
    }
}

/// Parses an optional `<…>` generics list into (declaration, argument)
/// strings — carried over from the previous no-op shim.
fn parse_generics(tokens: &mut Tokens) -> (String, String) {
    let mut params = String::new();
    let mut args = String::new();
    if let Some(TokenTree::Punct(p)) = tokens.peek() {
        if p.as_char() == '<' {
            tokens.next();
            let mut depth = 1usize;
            let mut raw: Vec<String> = Vec::new();
            for tt in tokens.by_ref() {
                if let TokenTree::Punct(p) = &tt {
                    match p.as_char() {
                        '<' => depth += 1,
                        '>' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                raw.push(tt.to_string());
            }
            // Declarations keep their bounds but drop defaults
            // (`V = f64` becomes `V`): an `impl<…>` may not repeat a
            // default. Arguments are the bare parameter names.
            let mut depth = 0usize;
            let mut current: Vec<String> = Vec::new();
            let mut pieces: Vec<String> = Vec::new();
            let mut decl: Vec<String> = Vec::new();
            let mut decls: Vec<String> = Vec::new();
            let mut defaulted = false;
            for tok in raw.iter().chain(std::iter::once(&",".to_owned())) {
                match tok.as_str() {
                    "<" | "(" | "[" => depth += 1,
                    ">" | ")" | "]" => depth = depth.saturating_sub(1),
                    "," if depth == 0 => {
                        if !decl.is_empty() {
                            decls.push(decl.join(" "));
                        }
                        decl.clear();
                        defaulted = false;
                        let name_tok = if current.first().map(String::as_str) == Some("const") {
                            current.get(1)
                        } else {
                            current.first()
                        };
                        if let Some(n) = name_tok {
                            pieces.push(n.clone());
                        }
                        current.clear();
                        continue;
                    }
                    _ => {}
                }
                defaulted |= depth == 0 && tok == "=";
                if !defaulted {
                    decl.push(tok.clone());
                }
                if depth == 0 && (tok == ":" || tok == "=") {
                    current.push("\u{0}".into()); // sentinel: ignore the rest
                }
                if current.last().map(String::as_str) != Some("\u{0}") {
                    current.push(tok.clone());
                }
            }
            params = decls.join(", ");
            args = pieces.join(", ");
        }
    }
    (params, args)
}

// ---------------------------------------------------------------------
// Serialize codegen
// ---------------------------------------------------------------------

fn ser_named_fields(fields: &[Field], rename_all: Option<RenameAll>, access: &str) -> String {
    let mut out = String::from("let mut __m = ::serde::value::Map::new();\n");
    for f in fields {
        if f.attrs.skip {
            continue;
        }
        if f.attrs.flatten {
            out.push_str(&format!(
                "__m.merge_flat(::serde::Serialize::to_value({access}{}));\n",
                f.name
            ));
        } else {
            out.push_str(&format!(
                "__m.insert_field(\"{}\", ::serde::Serialize::to_value({access}{}));\n",
                f.key(rename_all),
                f.name
            ));
        }
    }
    out.push_str("::serde::value::Value::Object(__m)\n");
    out
}

fn gen_serialize_body(c: &Container) -> String {
    match &c.body {
        Body::Named(fields) => ser_named_fields(fields, c.attrs.rename_all, "&self."),
        Body::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_owned(),
        Body::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::value::Value::Array(vec![{}])", items.join(", "))
        }
        Body::Unit => "::serde::value::Value::Null".to_owned(),
        Body::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let key = v.key(c.attrs.rename_all);
                let name = &c.name;
                let vname = &v.name;
                match &v.data {
                    VariantData::Unit => arms.push_str(&format!(
                        "{name}::{vname} => ::serde::value::Value::String(\"{key}\".to_owned()),\n"
                    )),
                    VariantData::Tuple(1) => arms.push_str(&format!(
                        "{name}::{vname}(__f0) => ::serde::value::Value::tagged(\"{key}\", \
                         ::serde::Serialize::to_value(__f0)),\n"
                    )),
                    VariantData::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        let items: Vec<String> = (0..*n)
                            .map(|i| format!("::serde::Serialize::to_value(__f{i})"))
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vname}({}) => ::serde::value::Value::tagged(\"{key}\", \
                             ::serde::value::Value::Array(vec![{}])),\n",
                            binds.join(", "),
                            items.join(", ")
                        ));
                    }
                    VariantData::Struct(fields) => {
                        let binds: Vec<String> = fields
                            .iter()
                            .map(|f| format!("{}: __b_{}", f.name, f.name))
                            .collect();
                        let mut body = String::new();
                        for f in fields {
                            if f.attrs.skip {
                                continue;
                            }
                            if f.attrs.flatten {
                                body.push_str(&format!(
                                    "__m.merge_flat(::serde::Serialize::to_value(__b_{}));\n",
                                    f.name
                                ));
                            } else {
                                body.push_str(&format!(
                                    "__m.insert_field(\"{}\", \
                                     ::serde::Serialize::to_value(__b_{}));\n",
                                    f.key(None),
                                    f.name
                                ));
                            }
                        }
                        arms.push_str(&format!(
                            "{name}::{vname} {{ {} }} => {{\n\
                             let mut __m = ::serde::value::Map::new();\n\
                             {body}\
                             ::serde::value::Value::tagged(\"{key}\", \
                             ::serde::value::Value::Object(__m))\n}}\n",
                            binds.join(", ")
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}\n")
        }
    }
}

// ---------------------------------------------------------------------
// Deserialize codegen
// ---------------------------------------------------------------------

/// Generates an `Option<Vec<&'static str>>` expression listing the
/// object keys a named-field set consumes: the fields' own keys plus a
/// flattened field's keys (or `None` — accept anything — when a
/// flattened type's key set is open).
fn known_fields_expr(fields: &[Field], rename_all: Option<RenameAll>) -> String {
    let own: Vec<String> = fields
        .iter()
        .filter(|f| !f.attrs.skip && !f.attrs.flatten)
        .map(|f| format!("\"{}\"", f.key(rename_all)))
        .collect();
    let mut body = format!(
        "let mut __known: ::std::option::Option<::std::vec::Vec<&'static str>> = \
         ::std::option::Option::Some(vec![{}]);\n",
        own.join(", ")
    );
    for f in fields.iter().filter(|f| f.attrs.flatten && !f.attrs.skip) {
        body.push_str(&format!(
            "if let ::std::option::Option::Some(__k) = &mut __known {{\n\
             match ::serde::de::known_fields_of::<{}>() {{\n\
             ::std::option::Option::Some(__f) => __k.extend(__f),\n\
             ::std::option::Option::None => __known = ::std::option::Option::None,\n\
             }}\n}}\n",
            f.ty
        ));
    }
    format!("{{\n{body}__known\n}}")
}

fn de_named_fields(
    fields: &[Field],
    rename_all: Option<RenameAll>,
    ctor: &str,
    source_value: &str,
    include_check: bool,
) -> String {
    let mut inits = String::new();
    for f in fields {
        let init = if f.attrs.skip {
            "::std::default::Default::default()".to_owned()
        } else if f.attrs.flatten {
            format!("::serde::de::flat_field({source_value})?")
        } else if f.attrs.default {
            format!(
                "::serde::de::field_or_default(__obj, \"{}\")?",
                f.key(rename_all)
            )
        } else {
            format!("::serde::de::field(__obj, \"{}\")?", f.key(rename_all))
        };
        inits.push_str(&format!("{}: {init},\n", f.name));
    }
    let check = if include_check {
        format!(
            "::serde::de::check_unknown(__obj, &{})?;\n",
            known_fields_expr(fields, rename_all)
        )
    } else {
        String::new()
    };
    format!(
        "let __obj = ::serde::de::as_object({source_value})?;\n\
         let _ = &__obj;\n\
         {check}\
         ::std::result::Result::Ok({ctor} {{\n{inits}}})\n"
    )
}

fn de_tuple_fields(n: usize, ctor: &str, source_value: &str) -> String {
    if n == 1 {
        return format!(
            "::std::result::Result::Ok({ctor}(::serde::Deserialize::from_value({source_value})?))\n"
        );
    }
    let items: Vec<String> = (0..n)
        .map(|i| {
            format!(
                "::serde::Deserialize::from_value(&__items[{i}])\
                 .map_err(|__e| __e.in_index({i}))?"
            )
        })
        .collect();
    format!(
        "let __items = ::serde::de::as_tuple({source_value}, {n})?;\n\
         ::std::result::Result::Ok({ctor}({}))\n",
        items.join(", ")
    )
}

fn gen_deserialize_body(c: &Container) -> String {
    match &c.body {
        Body::Named(fields) => de_named_fields(fields, c.attrs.rename_all, &c.name, "__v", true),
        Body::Tuple(n) => de_tuple_fields(*n, &c.name, "__v"),
        Body::Unit => format!(
            "::serde::de::expect_null(__v)?;\n::std::result::Result::Ok({})\n",
            c.name
        ),
        Body::Enum(variants) => {
            let keys: Vec<String> = variants
                .iter()
                .map(|v| format!("\"{}\"", v.key(c.attrs.rename_all)))
                .collect();
            let all_keys = keys.join(", ");
            let name = &c.name;

            let mut unit_arms = String::new();
            let mut data_arms = String::new();
            for v in variants {
                let key = v.key(c.attrs.rename_all);
                let vname = &v.name;
                match &v.data {
                    VariantData::Unit => {
                        unit_arms.push_str(&format!(
                            "\"{key}\" => ::std::result::Result::Ok({name}::{vname}),\n"
                        ));
                        data_arms.push_str(&format!(
                            "\"{key}\" => ::serde::de::expect_null(__inner)\
                             .map(|()| {name}::{vname})\
                             .map_err(|__e| __e.in_field(\"{key}\")),\n"
                        ));
                    }
                    VariantData::Tuple(n) => {
                        let body = de_tuple_fields(*n, &format!("{name}::{vname}"), "__inner");
                        data_arms.push_str(&format!(
                            "\"{key}\" => (|| -> ::std::result::Result<Self, \
                             ::serde::de::DeError> {{\n{body}}})()\
                             .map_err(|__e| __e.in_field(\"{key}\")),\n"
                        ));
                    }
                    VariantData::Struct(fields) => {
                        let body = de_named_fields(
                            fields,
                            None,
                            &format!("{name}::{vname}"),
                            "__inner",
                            true,
                        );
                        data_arms.push_str(&format!(
                            "\"{key}\" => (|| -> ::std::result::Result<Self, \
                             ::serde::de::DeError> {{\n{body}}})()\
                             .map_err(|__e| __e.in_field(\"{key}\")),\n"
                        ));
                    }
                }
            }
            format!(
                "const __VARIANTS: &[&str] = &[{all_keys}];\n\
                 match ::serde::de::tag(__v, \"{name}\")? {{\n\
                 ::serde::de::Tag::Unit(__t) => match __t {{\n\
                 {unit_arms}\
                 __other => ::std::result::Result::Err(\
                 ::serde::de::DeError::unknown_variant(__other, __VARIANTS)),\n\
                 }},\n\
                 ::serde::de::Tag::Data(__t, __inner) => match __t {{\n\
                 {data_arms}\
                 __other => ::std::result::Result::Err(\
                 ::serde::de::DeError::unknown_variant(__other, __VARIANTS)),\n\
                 }},\n\
                 }}\n"
            )
        }
    }
}

/// Extra trait methods generated for named structs: the check-free
/// `from_value_flat` entry (used when this struct is itself flattened
/// into a parent) and `known_fields` (so a parent's unknown-key check
/// covers this struct's keys).
fn gen_deserialize_extra(c: &Container) -> String {
    let Body::Named(fields) = &c.body else {
        return String::new();
    };
    let flat_body = de_named_fields(fields, c.attrs.rename_all, &c.name, "__v", false);
    let known = known_fields_expr(fields, c.attrs.rename_all);
    format!(
        "fn from_value_flat(__v: &::serde::value::Value) \
         -> ::std::result::Result<Self, ::serde::de::DeError> {{\n{flat_body}}}\n\
         fn known_fields() -> ::std::option::Option<::std::vec::Vec<&'static str>> {{\n\
         {known}\n}}\n"
    )
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/// Derives the shim's `Serialize` (value-tree construction).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let c = parse_container(input);
    let body = gen_serialize_body(&c);
    let bounds = c.type_param_bounds("::serde::Serialize");
    let imp = if c.params.is_empty() {
        format!(
            "#[automatically_derived]\n\
             impl ::serde::Serialize for {} {{\n\
             fn to_value(&self) -> ::serde::value::Value {{\n{body}}}\n}}",
            c.self_ty()
        )
    } else {
        format!(
            "#[automatically_derived]\n\
             impl<{}> ::serde::Serialize for {} {bounds} {{\n\
             fn to_value(&self) -> ::serde::value::Value {{\n{body}}}\n}}",
            c.params,
            c.self_ty()
        )
    };
    imp.parse()
        .expect("serde shim derive: generated impl parses")
}

/// Derives the shim's `Deserialize` (value-tree walking with
/// path-qualified errors).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let c = parse_container(input);
    let body = gen_deserialize_body(&c);
    let extra = gen_deserialize_extra(&c);
    let bounds = c.type_param_bounds("for<'__de> ::serde::Deserialize<'__de>");
    let imp = if c.params.is_empty() {
        format!(
            "#[automatically_derived]\n\
             impl<'de> ::serde::Deserialize<'de> for {} {{\n\
             fn from_value(__v: &::serde::value::Value) \
             -> ::std::result::Result<Self, ::serde::de::DeError> {{\n{body}}}\n{extra}}}",
            c.self_ty()
        )
    } else {
        format!(
            "#[automatically_derived]\n\
             impl<'de, {}> ::serde::Deserialize<'de> for {} {bounds} {{\n\
             fn from_value(__v: &::serde::value::Value) \
             -> ::std::result::Result<Self, ::serde::de::DeError> {{\n{body}}}\n{extra}}}",
            c.params,
            c.self_ty()
        )
    };
    imp.parse()
        .expect("serde shim derive: generated impl parses")
}
