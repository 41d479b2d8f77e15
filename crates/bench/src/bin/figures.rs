//! The figure harness: regenerates every table and figure of the paper's
//! evaluation section.
//!
//! ```text
//! figures <experiment> [--scale N] [--reps N] [--workers N] [--out DIR]
//!
//! experiments:
//!   tab1 tab2 table3
//!   fig1 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15
//!   vectorized — batch kernels vs row operators (regression record)
//!   index_build — bulk-load + single-replay build vs row-at-a-time (regression record)
//!   serve      — closed-loop multi-tenant SQL serving, 1/4/16 clients (regression record)
//!   memory     — governed serving under a byte budget with spill (regression record)
//!   ivm        — standing queries: incremental maintenance vs recompute-per-version (regression record)
//!   ablate-layout ablate-broadcast ablate-mvcc ablate-partitioning
//!   all        — everything above
//!   quick      — a fast subset (tab1 tab2 table3 fig7 fig8 fig11)
//! ```

use bench::{
    ablations, figs_index, figs_ivm, figs_memory, figs_micro, figs_real, figs_serve,
    figs_vectorized, figs_write, Opts,
};

fn usage() -> ! {
    eprintln!(
        "usage: figures <experiment> [--scale N] [--reps N] [--workers N] [--out DIR]\n\
         experiments: tab1 tab2 table3 fig1 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11\n\
         fig12 fig13 fig14 fig15 vectorized index_build serve memory ivm\n\
         ablate-layout ablate-broadcast ablate-mvcc ablate-partitioning all quick"
    );
    std::process::exit(2);
}

fn parse_opts(args: &[String]) -> Opts {
    let mut opts = Opts::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                opts.scale = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--reps" => {
                opts.reps = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--workers" => {
                opts.workers = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--out" => {
                opts.out_dir = args.get(i + 1).map(Into::into).unwrap_or_else(|| usage());
                i += 2;
            }
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }
    opts
}

fn run(name: &str, opts: &Opts) {
    match name {
        "tab1" => figs_real::tab1(opts),
        "tab2" => figs_real::tab2(opts),
        "table3" => figs_micro::table3(opts),
        "fig1" => figs_micro::fig1(opts),
        "fig4" => figs_micro::fig4(opts),
        "fig5" => figs_micro::fig5(opts),
        "fig6" => figs_micro::fig6(opts),
        "fig7" => figs_micro::fig7(opts),
        "fig8" => figs_micro::fig8(opts),
        "fig9" => figs_write::fig9(opts),
        "fig10" => figs_write::fig10(opts),
        "fig11" => figs_write::fig11(opts),
        "fig12" => figs_write::fig12(opts),
        "fig13" => figs_real::fig13(opts),
        "fig14" => figs_real::fig14(opts),
        "fig15" => figs_real::fig15(opts),
        "vectorized" => figs_vectorized::vectorized(opts),
        "index_build" => figs_index::index_build(opts),
        "serve" => figs_serve::serve(opts),
        "memory" => figs_memory::memory(opts),
        "ivm" => figs_ivm::ivm(opts),
        "ablate-layout" => ablations::ablate_layout(opts),
        "ablate-broadcast" => ablations::ablate_broadcast(opts),
        "ablate-mvcc" => ablations::ablate_mvcc(opts),
        "ablate-partitioning" => ablations::ablate_partitioning(opts),
        _ => usage(),
    }
}

const ALL: &[&str] = &[
    "tab1",
    "tab2",
    "table3",
    "fig1",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "vectorized",
    "index_build",
    "serve",
    "memory",
    "ivm",
    "ablate-layout",
    "ablate-broadcast",
    "ablate-mvcc",
    "ablate-partitioning",
];

const QUICK: &[&str] = &["tab1", "tab2", "table3", "fig7", "fig8", "fig11"];

/// Run each experiment of a suite in its own child process so allocator
/// state and memory pressure from one experiment cannot skew the next
/// (important on small hosts).
fn run_suite_isolated(names: &[&str], flags: &[String]) {
    let exe = std::env::current_exe().expect("current exe");
    for name in names {
        let status = std::process::Command::new(&exe)
            .arg(name)
            .args(flags)
            .status()
            .expect("spawn experiment");
        if !status.success() {
            eprintln!("experiment {name} failed: {status}");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(experiment) = args.first() else {
        usage()
    };
    let flags: Vec<String> = args[1..].to_vec();
    let opts = parse_opts(&flags);
    let started = std::time::Instant::now();
    match experiment.as_str() {
        "all" => run_suite_isolated(ALL, &flags),
        "quick" => run_suite_isolated(QUICK, &flags),
        name => run(name, &opts),
    }
    println!("\ncompleted in {:.1}s", started.elapsed().as_secs_f64());
}
