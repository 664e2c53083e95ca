//! Figure 7: training runtime per method normalized to the
//! memory-unconstrained logistic regression baseline, at the
//! recovery-optimal configurations (Table 2), on the RCV1-like stream.
//!
//! Criterion micro-benchmarks of the same update paths live in
//! `wmsketch-bench` (`cargo bench -p wmsketch-bench`).

use wmsketch_experiments::{
    scaled, train_and_score, train_reference, Dataset, MethodConfig, Table, FIGURE_METHODS,
};

fn main() {
    let n = scaled(100_000);
    let lambda = 1e-6;
    println!("== Fig 7: normalized runtime vs memory-unconstrained LR (RCV1-like, n={n}) ==\n");
    // Train the reference and time it.
    let (_, _, lr_secs) = train_reference(Dataset::Rcv1, lambda, n, 0);
    let mut t = Table::new(&["Method", "2KB", "8KB", "32KB"]);
    for method in FIGURE_METHODS {
        let mut cells = vec![method.name().to_string()];
        for budget in [2048usize, 8192, 32768] {
            let cfg = MethodConfig::new(method, budget, lambda, 1);
            let r = train_and_score(&cfg, Dataset::Rcv1, n, 0, &[], 0);
            cells.push(format!("{:.2}x", r.seconds / lr_secs));
        }
        t.row(cells);
    }
    t.print();
    println!("\nLR baseline: {lr_secs:.2}s for {n} examples.");
    println!("paper shape: Hash fastest (~2x LR); AWM ~2x Hash; WM slowest, growing with");
    println!("depth (larger budgets → deeper sketches → more hashing per update).");
}
