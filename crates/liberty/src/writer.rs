//! Liberty text emission.

use std::fmt::Write as _;

use crate::ast::{Cell, Library, TimingTable};

/// Appends `values` as `v1, v2, …`, each in `f64`'s shortest round-trip
/// form, formatted straight into `out`.
fn write_list(out: &mut String, values: &[f64]) {
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{v}");
    }
}

/// Appends `{indent}{name} ("v1, v2, …");` and a newline.
fn write_index(out: &mut String, indent: &str, name: &str, values: &[f64]) {
    let _ = write!(out, "{indent}{name} (\"");
    write_list(out, values);
    out.push_str("\");\n");
}

fn write_table(out: &mut String, indent: &str, table: &TimingTable) {
    let _ = writeln!(
        out,
        "{indent}{} ({}) {{",
        table.kind.attribute_name(),
        table.template
    );
    let inner = format!("{indent}  ");
    if !table.index_1.is_empty() {
        write_index(out, &inner, "index_1", &table.index_1);
    }
    if !table.index_2.is_empty() {
        write_index(out, &inner, "index_2", &table.index_2);
    }
    let _ = write!(out, "{inner}values (");
    for (i, row) in table.values.iter().enumerate() {
        if i > 0 {
            let _ = write!(out, ", \\\n{indent}    ");
        }
        out.push('"');
        write_list(out, row);
        out.push('"');
    }
    out.push_str(");\n");
    let _ = writeln!(out, "{indent}}}");
}

/// Emits a [`Library`] as Liberty text that [`crate::parse_library`] reads
/// back unchanged (round-trip safe for the modeled subset).
///
/// The text is [`write_header`], then [`write_cell`] for each cell, then
/// [`write_footer`]; callers that keep rendered cell groups around (the
/// daemon's warm hits) assemble the same bytes from those three pieces.
///
/// # Example
///
/// ```
/// use lvf2_liberty::ast::Library;
///
/// let text = lvf2_liberty::write_library(&Library::new("demo"));
/// assert!(text.starts_with("library (demo) {"));
/// ```
pub fn write_library(lib: &Library) -> String {
    let obs = lvf2_obs::Obs::current();
    let _span = obs.span("liberty.write");
    obs.inc("liberty.cells_written", lib.cells.len() as u64);
    let mut out = String::new();
    write_header(&mut out, lib);
    for cell in &lib.cells {
        write_cell(&mut out, cell);
    }
    write_footer(&mut out);
    out
}

/// Appends the library group's opening line, its unit attributes and its
/// LUT templates — everything of [`write_library`]'s text before the first
/// cell. `lib.cells` is not read.
pub fn write_header(out: &mut String, lib: &Library) {
    let _ = writeln!(out, "library ({}) {{", lib.name);
    let _ = writeln!(out, "  delay_model : table_lookup;");
    let _ = writeln!(out, "  time_unit : \"1ns\";");
    let _ = writeln!(out, "  capacitive_load_unit (1, pf);");
    for t in &lib.templates {
        let _ = writeln!(out, "  lu_table_template ({}) {{", t.name);
        let _ = writeln!(out, "    variable_1 : input_net_transition;");
        let _ = writeln!(out, "    variable_2 : total_output_net_capacitance;");
        write_index(out, "    ", "index_1", &t.index_1);
        write_index(out, "    ", "index_2", &t.index_2);
        let _ = writeln!(out, "  }}");
    }
}

/// Appends one `cell (…) { … }` group, indented for a library body.
pub fn write_cell(out: &mut String, cell: &Cell) {
    let _ = writeln!(out, "  cell ({}) {{", cell.name);
    for pin in &cell.pins {
        let _ = writeln!(out, "    pin ({}) {{", pin.name);
        let _ = writeln!(out, "      direction : {};", pin.direction);
        for timing in &pin.timings {
            let _ = writeln!(out, "      timing () {{");
            let _ = writeln!(out, "        related_pin : \"{}\";", timing.related_pin);
            if let Some(when) = &timing.when {
                let _ = writeln!(out, "        when : \"{when}\";");
            }
            if let Some(sense) = &timing.timing_sense {
                let _ = writeln!(out, "        timing_sense : {sense};");
            }
            for table in &timing.tables {
                write_table(out, "        ", table);
            }
            let _ = writeln!(out, "      }}");
        }
        let _ = writeln!(out, "    }}");
    }
    let _ = writeln!(out, "  }}");
}

/// Appends the `}` that closes the library group.
pub fn write_footer(out: &mut String) {
    out.push_str("}\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BaseKind, Pin, StatKind, TableKind, TimingGroup};
    use crate::parser::parse_library;

    fn sample_library() -> Library {
        let table = TimingTable {
            kind: TableKind {
                base: BaseKind::CellFall,
                stat: StatKind::Nominal,
            },
            template: "t2x2".into(),
            index_1: vec![0.01, 0.02],
            index_2: vec![0.001, 0.002],
            values: vec![vec![0.1, 0.11], vec![0.12, 0.13]],
        };
        let sigma = TimingTable {
            kind: TableKind {
                base: BaseKind::CellFall,
                stat: StatKind::Weight(2),
            },
            template: "t2x2".into(),
            index_1: vec![0.01, 0.02],
            index_2: vec![0.001, 0.002],
            values: vec![vec![0.3, 0.0], vec![0.25, 0.4]],
        };
        let mut lib = Library::new("roundtrip");
        lib.templates.push(crate::ast::LutTemplate {
            name: "t2x2".into(),
            index_1: vec![0.01, 0.02],
            index_2: vec![0.001, 0.002],
        });
        lib.cells.push(Cell {
            name: "NAND2_X1".into(),
            pins: vec![Pin {
                name: "Y".into(),
                direction: "output".into(),
                timings: vec![TimingGroup {
                    related_pin: "A".into(),
                    tables: vec![table, sigma],
                    ..Default::default()
                }],
            }],
        });
        lib
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let lib = sample_library();
        let text = write_library(&lib);
        let back = parse_library(&text).unwrap();
        assert_eq!(back, lib);
    }

    #[test]
    fn writes_lvf2_attribute_names() {
        let text = write_library(&sample_library());
        assert!(text.contains("ocv_weight2_cell_fall (t2x2)"));
        assert!(text.contains("index_1 (\"0.01, 0.02\");"));
    }

    #[test]
    fn library_is_header_then_cell_groups_then_close() {
        let mut lib = sample_library();
        let mut second = lib.cells[0].clone();
        second.name = "INV_X1".into();
        second.pins[0].timings[0].when = Some("!B".into());
        second.pins[0].timings[0].timing_sense = Some("negative_unate".into());
        lib.cells.push(second);
        let mut pieces = String::new();
        write_header(&mut pieces, &lib);
        for cell in &lib.cells {
            write_cell(&mut pieces, cell);
        }
        write_footer(&mut pieces);
        assert_eq!(write_library(&lib), pieces);
        assert!(pieces.ends_with("  }\n}\n"));
    }

    #[test]
    fn empty_library_is_valid() {
        let text = write_library(&Library::new("empty"));
        let back = parse_library(&text).unwrap();
        assert!(back.cells.is_empty());
    }
}
