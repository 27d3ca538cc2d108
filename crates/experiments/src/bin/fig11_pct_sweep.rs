//! Figure 11 (§5.1.3): see `lacc_experiments::figures::fig11_pct_sweep`.
fn main() {
    lacc_experiments::figures::fig11_pct_sweep::FIGURE.main();
}
