//! Integration tests for the shim's real derive codegen: structs,
//! enums with data, `Option`, nested and flattened structs, renames,
//! defaults, and path-qualified errors.

use serde::value::Value;
use serde::{Deserialize, Serialize};

fn to_value<T: serde::Serialize>(x: &T) -> Value {
    x.to_value()
}

fn round_trip<T>(x: &T) -> T
where
    T: serde::Serialize + serde::DeserializeOwned,
{
    T::from_value(&x.to_value()).expect("round trip")
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Inner {
    gain: f64,
    label: String,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Nested {
    name: String,
    inner: Inner,
    items: Vec<Inner>,
    pitch_um: Option<f64>,
}

#[test]
fn nested_structs_round_trip() {
    let x = Nested {
        name: "chip".into(),
        inner: Inner {
            gain: 2.5,
            label: "sf".into(),
        },
        items: vec![Inner {
            gain: 0.1,
            label: "a".into(),
        }],
        pitch_um: Some(3.25),
    };
    assert_eq!(round_trip(&x), x);
}

#[test]
fn none_fields_are_omitted_and_read_back() {
    let x = Nested {
        name: "n".into(),
        inner: Inner {
            gain: 1.0,
            label: String::new(),
        },
        items: vec![],
        pitch_um: None,
    };
    let v = to_value(&x);
    let obj = v.as_object().unwrap();
    assert!(
        obj.get("pitch_um").is_none(),
        "None must serialize as absent"
    );
    assert_eq!(round_trip(&x), x);
}

#[test]
fn missing_required_field_names_the_path() {
    let v: Value = serde_json::from_str(r#"{"name": "x", "items": [], "inner": {"gain": 1}}"#)
        .expect("valid JSON");
    let err = <Nested as serde::Deserialize>::from_value(&v).unwrap_err();
    assert_eq!(err.path(), "inner.label");
    assert!(err.message().contains("missing required field `label`"));
}

#[test]
fn wrong_type_deep_in_a_vec_names_index_and_field() {
    let v: Value = serde_json::from_str(
        r#"{"name": "x", "inner": {"gain": 1, "label": "l"},
            "items": [{"gain": 1, "label": "ok"}, {"gain": "ten", "label": "bad"}]}"#,
    )
    .unwrap();
    let err = <Nested as serde::Deserialize>::from_value(&v).unwrap_err();
    assert_eq!(err.path(), "items[1].gain");
    assert!(err.to_string().contains("\"ten\""), "{err}");
}

// ---------------------------------------------------------------------
// Enums with data
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
enum Kind {
    Input,
    Stencil { kernel: [u32; 3], stride: [u32; 3] },
    ElementWise { operands: u32 },
    Pair(u32, String),
    Wrapped(Inner),
}

#[test]
fn unit_variant_is_a_string() {
    assert_eq!(to_value(&Kind::Input), Value::String("input".into()));
    assert_eq!(round_trip(&Kind::Input), Kind::Input);
}

#[test]
fn struct_variant_is_externally_tagged() {
    let k = Kind::Stencil {
        kernel: [3, 3, 1],
        stride: [1, 1, 1],
    };
    let v = to_value(&k);
    let obj = v.as_object().unwrap();
    assert_eq!(obj.len(), 1);
    assert!(obj.get("stencil").is_some(), "{v}");
    assert_eq!(round_trip(&k), k);
}

#[test]
fn tuple_and_newtype_variants_round_trip() {
    let p = Kind::Pair(7, "x".into());
    let w = Kind::Wrapped(Inner {
        gain: 1.5,
        label: "l".into(),
    });
    assert_eq!(round_trip(&p), p);
    assert_eq!(round_trip(&w), w);
    // Newtype variants carry the value directly, not a 1-array.
    let v = to_value(&w);
    assert!(v
        .as_object()
        .unwrap()
        .get("wrapped")
        .unwrap()
        .as_object()
        .is_some());
}

#[test]
fn unknown_variant_lists_the_options() {
    let v = Value::String("stancil".into());
    let err = <Kind as serde::Deserialize>::from_value(&v).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("stancil"), "{msg}");
    assert!(
        msg.contains("stencil") && msg.contains("element_wise"),
        "{msg}"
    );
}

#[test]
fn variant_payload_errors_carry_the_variant_tag() {
    let v: Value =
        serde_json::from_str(r#"{"stencil": {"kernel": [3, 3], "stride": [1,1,1]}}"#).unwrap();
    let err = <Kind as serde::Deserialize>::from_value(&v).unwrap_err();
    assert_eq!(err.path(), "stencil.kernel");
    assert!(err.message().contains("3 elements"), "{err}");
}

// ---------------------------------------------------------------------
// Renames, defaults, flatten
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
struct Flat {
    read_pj: f64,
    write_pj: f64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Outer {
    #[serde(rename = "type")]
    type_name: String,
    #[serde(default)]
    version: u32,
    #[serde(flatten)]
    energy: Flat,
    #[serde(skip)]
    cache: Option<String>,
}

#[test]
fn rename_and_flatten_shape() {
    let x = Outer {
        type_name: "fifo".into(),
        version: 2,
        energy: Flat {
            read_pj: 0.25,
            write_pj: 0.5,
        },
        cache: Some("never serialized".into()),
    };
    let v = to_value(&x);
    let obj = v.as_object().unwrap();
    // Renamed key, flattened keys hoisted to the parent, skip honored.
    assert_eq!(obj.get("type").unwrap().as_str(), Some("fifo"));
    assert_eq!(obj.get("read_pj").unwrap().as_f64(), Some(0.25));
    assert!(obj.get("energy").is_none());
    assert!(obj.get("cache").is_none());
}

#[test]
fn flatten_and_default_round_trip() {
    let v: Value =
        serde_json::from_str(r#"{"type": "t", "read_pj": 1.5, "write_pj": 2.5}"#).unwrap();
    let x = <Outer as serde::Deserialize>::from_value(&v).unwrap();
    assert_eq!(x.version, 0, "missing #[serde(default)] field defaults");
    assert_eq!(x.energy.read_pj, 1.5);
    assert_eq!(x.cache, None, "skipped field reads as default");
    // Serialize → deserialize is stable (cache is not carried).
    let y = round_trip(&x);
    assert_eq!(y, x);
}

#[test]
fn unknown_key_is_rejected_with_its_path() {
    // A typo'd *optional* field must fail loudly, not silently read as
    // absent.
    let v: Value = serde_json::from_str(
        r#"{"name": "x", "inner": {"gain": 1, "label": "l"}, "items": [],
            "pitch_un": 3.0}"#,
    )
    .unwrap();
    let err = <Nested as serde::Deserialize>::from_value(&v).unwrap_err();
    assert_eq!(err.path(), "pitch_un");
    assert!(err.message().contains("unknown field"), "{err}");
    assert!(
        err.message().contains("pitch_um"),
        "should list the real keys: {err}"
    );
}

#[test]
fn flattened_struct_accepts_parent_keys_but_rejects_strangers() {
    // The parent's check covers the union of its own and the flattened
    // child's keys; a stranger key still fails.
    let ok: Value =
        serde_json::from_str(r#"{"type": "t", "read_pj": 1.0, "write_pj": 2.0}"#).unwrap();
    assert!(<Outer as serde::Deserialize>::from_value(&ok).is_ok());
    let bad: Value =
        serde_json::from_str(r#"{"type": "t", "read_pj": 1.0, "write_pj": 2.0, "reed_pj": 9.0}"#)
            .unwrap();
    let err = <Outer as serde::Deserialize>::from_value(&bad).unwrap_err();
    assert_eq!(err.path(), "reed_pj");
    assert!(err.message().contains("unknown field"), "{err}");
}

// ---------------------------------------------------------------------
// Newtype / tuple structs
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(transparent)]
struct Joules(f64);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Span(u32, u32);

#[test]
fn newtype_serializes_as_inner_value() {
    let e = Joules(2.5e-12);
    let v = to_value(&e);
    assert_eq!(v.as_f64(), Some(2.5e-12));
    assert_eq!(round_trip(&e), e);
}

#[test]
fn tuple_struct_serializes_as_array() {
    let s = Span(3, 9);
    let v = to_value(&s);
    assert_eq!(v.as_array().map(<[Value]>::len), Some(2));
    assert_eq!(round_trip(&s), s);
}

// ---------------------------------------------------------------------
// Generic structs with a defaulted parameter
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Measured<V: Clone = f64> {
    unit: String,
    value: V,
    peak: Option<V>,
}

#[test]
fn defaulted_generic_struct_round_trips_at_both_arguments() {
    let plain: Measured = Measured {
        unit: "adc".into(),
        value: 0.25,
        peak: None,
    };
    assert_eq!(
        to_value(&plain)
            .as_object()
            .unwrap()
            .get("value")
            .and_then(Value::as_f64),
        Some(0.25)
    );
    assert_eq!(round_trip(&plain), plain);
    let nested = Measured {
        unit: "pixel".into(),
        value: Span(1, 2),
        peak: Some(Span(3, 4)),
    };
    assert_eq!(round_trip(&nested), nested);
    let text = serde_json::to_string(&nested).unwrap();
    assert_eq!(
        serde_json::from_str::<Measured<Span>>(&text).unwrap(),
        nested
    );
}

// ---------------------------------------------------------------------
// Through JSON text
// ---------------------------------------------------------------------

#[test]
fn full_text_round_trip_via_serde_json() {
    let x = Nested {
        name: "sensor".into(),
        inner: Inner {
            gain: 1.0 / 3.0,
            label: "µ-unit".into(),
        },
        items: vec![],
        pitch_um: Some(5e-15),
    };
    let text = serde_json::to_string_pretty(&x).unwrap();
    let back: Nested = serde_json::from_str(&text).unwrap();
    assert_eq!(back, x);
    // Bit-exact floats through the text form.
    assert_eq!(back.inner.gain.to_bits(), x.inner.gain.to_bits());
    assert_eq!(
        back.pitch_um.unwrap().to_bits(),
        x.pitch_um.unwrap().to_bits()
    );
}
