//! Traffic-shape experiments: Table IV, Fig. 9 (RESET-bit distribution) and
//! Fig. 14 (extra writes caused by PR / D-BL).

use crate::table::fnum;
use crate::ExpTable;
use reram_core::{Scheme, WriteModel};
use reram_mem::{AddressMapper, FnwCodec};
use reram_workloads::{BenchProfile, LineWrite, TraceGenerator};

/// Writes sampled per benchmark for the distribution experiments.
const WRITE_SAMPLES: usize = 4_000;

/// Table IV: the simulated benchmarks, with the generator-measured PKI next
/// to the paper's.
#[must_use]
pub fn table4() -> ExpTable {
    let mut t = ExpTable::new(
        "table4",
        "Simulated benchmarks (paper RPKI/WPKI vs generator)",
        &["name", "RPKI", "WPKI", "gen RPKI", "gen WPKI"],
    );
    for p in BenchProfile::table_iv() {
        let mut reads = 0u64;
        let mut writes = 0u64;
        let mut instructions = 0u64;
        let mut gen = TraceGenerator::new(p, 11);
        for _ in 0..20_000 {
            let a = gen.next_inline();
            instructions += a.icount_gap;
            match a.write {
                None => reads += 1,
                Some(_) => writes += 1,
            }
        }
        let ki = instructions as f64 / 1000.0;
        t.row(vec![
            p.name.into(),
            fnum(p.rpki),
            fnum(p.wpki),
            fnum(reads as f64 / ki),
            fnum(writes as f64 / ki),
        ]);
    }
    t.note("Generators are seeded and deterministic; measured PKI tracks Table IV within noise.");
    t
}

/// Fig. 9: the RESET-bit-count distribution per 8-bit array per write,
/// after Flip-N-Write.
#[must_use]
pub fn fig9() -> ExpTable {
    let mut t = ExpTable::new(
        "fig9",
        "RESET bit count per 8-bit array per 64B write (% of arrays)",
        &["name", "0", "1", "2", "3", "4", "5", "6", "7", "8"],
    );
    let fnw = FnwCodec::paper();
    for p in BenchProfile::table_iv() {
        let mut hist = [0u64; 9];
        let mut arrays = 0u64;
        let mut gen = TraceGenerator::new(p, 23);
        for _ in 0..WRITE_SAMPLES * 3 {
            let Some(LineWrite { old, new, .. }) = gen.next_inline().write else {
                continue;
            };
            let w = fnw.encode(&old, &[false; 64], &new);
            for r in &w.resets {
                hist[r.count_ones() as usize] += 1;
                arrays += 1;
            }
        }
        let mut row = vec![p.name.to_string()];
        for h in hist {
            row.push(format!("{:.2}", h as f64 / arrays as f64 * 100.0));
        }
        t.row(row);
    }
    t.note("Paper: most arrays have no RESET; 1-3-bit RESETs appear in almost every write;");
    t.note("7-8-bit RESETs are extremely rare except xalancbmk (xal_m).");
    t
}

/// Fig. 14: cells written per 64 B line under Base (Flip-N-Write only),
/// DRVR+PR, and D-BL, plus the extra-RESET/SET percentages.
#[must_use]
pub fn fig14() -> ExpTable {
    let mut t = ExpTable::new(
        "fig14",
        "Cells written per 64B write: Base vs PR vs D-BL",
        &[
            "name",
            "base %cells",
            "PR %cells",
            "D-BL %cells",
            "PR resets+%",
            "PR sets+%",
            "PR writes+%",
            "D-BL resets+%",
        ],
    );
    let fnw = FnwCodec::paper();
    let base = WriteModel::paper(Scheme::Drvr);
    let pr = WriteModel::paper(Scheme::DrvrPr);
    let dbl = WriteModel::paper(Scheme::Hard);
    let mapper = AddressMapper::paper_baseline();
    let mut means = [0.0f64; 3];
    for p in BenchProfile::table_iv() {
        let mut acc = [[0u64; 3]; 3]; // [scheme][resets, sets, cells]
        let mut writes = 0u64;
        let mut gen = TraceGenerator::new(p, 31);
        for _ in 0..WRITE_SAMPLES * 3 {
            let a = gen.next_inline();
            let Some(LineWrite { old, new, .. }) = a.write else {
                continue;
            };
            writes += 1;
            let addr = mapper.decompose(a.line);
            let w = fnw.encode(&old, &[false; 64], &new);
            for (k, model) in [&base, &pr, &dbl].into_iter().enumerate() {
                let plan = model.plan_line_write_with_data(
                    addr.mat_row,
                    addr.col_offset,
                    &w.resets,
                    &w.sets,
                    Some(&w.stored),
                );
                acc[k][0] += u64::from(plan.resets);
                acc[k][1] += u64::from(plan.sets);
                acc[k][2] += u64::from(plan.cell_writes());
            }
        }
        let cells = 512.0 * writes as f64;
        let pct = |k: usize| acc[k][2] as f64 / cells * 100.0;
        let plus = |k: usize, f: usize| (acc[k][f] as f64 / acc[0][f] as f64 - 1.0) * 100.0;
        for (m, k) in means.iter_mut().zip(0..3) {
            *m += pct(k) / 11.0;
        }
        t.row(vec![
            p.name.into(),
            format!("{:.1}", pct(0)),
            format!("{:.1}", pct(1)),
            format!("{:.1}", pct(2)),
            format!("{:+.0}", plus(1, 0)),
            format!("{:+.0}", plus(1, 1)),
            format!(
                "{:+.0}",
                (acc[1][2] as f64 / acc[0][2] as f64 - 1.0) * 100.0
            ),
            format!("{:+.0}", plus(2, 0)),
        ]);
    }
    t.note("Paper: Base writes ~10% of cells; PR +54% RESETs / +48% SETs / +50.7% writes (14.3% of cells);");
    t.note("D-BL +235% RESETs, +108% writes (~20% of cells).");
    t.note(format!(
        "Measured means: Base {:.1}%, PR {:.1}%, D-BL {:.1}% of cells written.",
        means[0], means[1], means[2]
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_has_all_benchmarks() {
        let t = table4();
        assert_eq!(t.rows.len(), 11);
        // Measured RPKI tracks the paper column.
        for row in &t.rows {
            let paper: f64 = row[1].parse().unwrap();
            let gen: f64 = row[3].parse().unwrap();
            assert!(
                (gen - paper).abs() / paper < 0.25,
                "{}: {gen} vs {paper}",
                row[0]
            );
        }
    }

    #[test]
    fn fig9_mass_concentrates_low() {
        let t = fig9();
        for row in &t.rows {
            let zero: f64 = row[1].parse().unwrap();
            let eight: f64 = row[9].parse().unwrap();
            assert!(zero > 40.0, "{}: zero-reset share {zero}", row[0]);
            assert!(eight < 2.0, "{}: eight-reset share {eight}", row[0]);
        }
        // xal has the fattest 7-8 tail.
        let tail = |r: &Vec<String>| -> f64 {
            r[8].parse::<f64>().unwrap() + r[9].parse::<f64>().unwrap()
        };
        let xal = t.rows.iter().find(|r| r[0] == "xal_m").unwrap();
        let lbm = t.rows.iter().find(|r| r[0] == "lbm_m").unwrap();
        assert!(tail(xal) > tail(lbm));
    }

    #[test]
    fn fig14_ordering() {
        let t = fig14();
        for row in &t.rows {
            let base: f64 = row[1].parse().unwrap();
            let pr: f64 = row[2].parse().unwrap();
            let dbl: f64 = row[3].parse().unwrap();
            assert!(base < pr && pr < dbl, "{}: {base} {pr} {dbl}", row[0]);
        }
    }
}
