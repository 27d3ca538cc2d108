//! Figures 1 and 2 (§2.2): see `lacc_experiments::figures::fig01_02_utilization`.
fn main() {
    lacc_experiments::figures::fig01_02_utilization::FIGURE.main();
}
