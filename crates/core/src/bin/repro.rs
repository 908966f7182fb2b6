//! `repro` — print the reproduced paper artifacts.
//!
//! ```text
//! repro all            # the full report (default)
//! repro fig1 … fig6    # one figure
//! repro table1|table2|table3
//! repro case-studies   # Section IV-B
//! repro io-analysis    # Section VI-B, I/O
//! repro comm-analysis  # Section VI-B, communication
//! repro ablations      # EXPERIMENTS.md ablations 1–8, X3, X5 (computed)
//! repro crossover      # simulated allreduce-algorithm crossover table
//! repro list           # available artifact ids
//! ```

use summit_core::report;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let artifacts = report::artifacts();
    if args.is_empty() {
        print!("{}", report::full_report());
        return;
    }
    for arg in &args {
        if arg == "list" {
            for (id, _) in &artifacts {
                println!("{id}");
            }
            continue;
        }
        match artifacts.iter().find(|(id, _)| id == arg) {
            Some((_, gen)) => println!("{}", gen()),
            None => {
                eprintln!("unknown artifact '{arg}'; try `repro list`");
                std::process::exit(2);
            }
        }
    }
}
