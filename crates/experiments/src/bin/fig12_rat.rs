//! Figure 12 (§5.2): see `lacc_experiments::figures::fig12_rat`.
fn main() {
    lacc_experiments::figures::fig12_rat::FIGURE.main();
}
