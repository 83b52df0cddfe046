//! `repro` — regenerate the paper's evaluation figures.
//!
//! ```text
//! repro all                      # every figure, paper-scale (slow)
//! repro fig5 fig8                # selected figures
//! repro --quick                  # 10% scale, 2 seeds (smoke test);
//!                                # omitting the figure list means "all"
//! repro all --seeds 5 --scale 0.5
//! repro all --out results        # write CSVs + summary.md to a directory
//! repro --list                   # list figure ids
//! repro custom --algos DC,SVO,AC40X [--workload random|sorted]
//!                                # KS-vs-memory for any algorithm mix,
//!                                # selected by name through the AlgoSpec
//!                                # registry
//! ```

use dh_bench::{all_figure_ids, run_custom, run_figure, RunOptions};
use dh_catalog::AlgoSpec;
use dh_gen::workload::WorkloadKind;
use std::io::Write;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--quick] [--seeds N] [--scale F] [--out DIR] [--list] [figN...|all]\n\
         \x20      repro custom --algos LIST [--workload random|sorted] [options]\n\
         (no figure list means all figures; beware that without --quick this\n\
         is the paper-scale run. --algos takes paper legend names, e.g.\n\
         DC,DVO,DADO,AC20X,EquiWidth,EquiDepth,SC,SVO,SADO,SSBM)"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }

    let mut quick = false;
    let mut seeds: Option<u64> = None;
    let mut scale: Option<f64> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut figures: Vec<String> = Vec::new();
    let mut custom = false;
    let mut algos: Vec<AlgoSpec> = Vec::new();
    let mut workload: Option<WorkloadKind> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "custom" => custom = true,
            "--algos" => {
                let list = it.next().unwrap_or_else(|| usage());
                for name in list.split(',') {
                    match name.parse::<AlgoSpec>() {
                        Ok(spec) => algos.push(spec),
                        Err(e) => {
                            eprintln!("{e}");
                            usage();
                        }
                    }
                }
            }
            "--workload" => {
                workload = Some(match it.next().unwrap_or_else(|| usage()).as_str() {
                    "random" => WorkloadKind::RandomInsertions,
                    "sorted" => WorkloadKind::SortedInsertions,
                    _ => usage(),
                });
            }
            "--seeds" => {
                let v = it.next().unwrap_or_else(|| usage());
                seeds = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--scale" => {
                let v = it.next().unwrap_or_else(|| usage());
                scale = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--out" => {
                out_dir = Some(PathBuf::from(it.next().unwrap_or_else(|| usage())));
            }
            "--list" => {
                for id in all_figure_ids() {
                    println!("{id}");
                }
                return;
            }
            "all" => figures.extend(all_figure_ids().iter().map(|s| s.to_string())),
            f if f.starts_with("fig") => figures.push(f.to_string()),
            _ => usage(),
        }
    }
    // `--quick` is a base profile; explicit --seeds/--scale win regardless
    // of the order the flags appeared in.
    let mut opts = if quick {
        RunOptions::quick()
    } else {
        RunOptions::default()
    };
    if let Some(s) = seeds {
        opts.seeds = s;
    }
    if let Some(s) = scale {
        opts.scale = s;
    }

    // `custom` bypasses the figure registry: any algorithm mix, selected
    // by name, run end-to-end through AlgoSpec trait objects. Reject
    // conflicting arguments instead of silently dropping them.
    if custom || !algos.is_empty() {
        if algos.is_empty() {
            eprintln!("custom mode needs --algos");
            usage();
        }
        if !figures.is_empty() {
            eprintln!("custom mode and a figure list are mutually exclusive");
            usage();
        }
        let workload = workload.unwrap_or(WorkloadKind::RandomInsertions);
        let t0 = std::time::Instant::now();
        eprint!("running custom ... ");
        std::io::stderr().flush().ok();
        let result = run_custom(&algos, workload, opts);
        eprintln!("done in {:.1}s", t0.elapsed().as_secs_f64());
        println!("{}", result.to_markdown());
        if let Some(dir) = &out_dir {
            std::fs::create_dir_all(dir).expect("create output directory");
            let path = dir.join("custom.csv");
            std::fs::write(&path, result.to_csv())
                .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            eprintln!("wrote {}", path.display());
        }
        return;
    }

    if workload.is_some() {
        eprintln!("--workload only applies to custom mode (figures fix their own workloads)");
        usage();
    }

    // Flags without an explicit figure list mean "all figures".
    if figures.is_empty() {
        figures.extend(all_figure_ids().iter().map(|s| s.to_string()));
    }
    // Drop repeats while keeping first-mention (paper) order.
    let mut seen = std::collections::HashSet::new();
    figures.retain(|f| seen.insert(f.clone()));

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }

    let mut summary = String::from("# Reproduced figures\n\n");
    summary.push_str(&format!(
        "Options: seeds = {}, scale = {}\n\n",
        opts.seeds, opts.scale
    ));
    for id in &figures {
        let t0 = std::time::Instant::now();
        eprint!("running {id} ... ");
        std::io::stderr().flush().ok();
        match run_figure(id, opts) {
            Ok(result) => {
                eprintln!("done in {:.1}s", t0.elapsed().as_secs_f64());
                let md = result.to_markdown();
                println!("{md}");
                summary.push_str(&md);
                if let Some(dir) = &out_dir {
                    let path = dir.join(format!("{id}.csv"));
                    std::fs::write(&path, result.to_csv())
                        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(dir) = &out_dir {
        let path = dir.join("summary.md");
        std::fs::write(&path, summary).expect("write summary");
        eprintln!("wrote {}", path.display());
    }
}
