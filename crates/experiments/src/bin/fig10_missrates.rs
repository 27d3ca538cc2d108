//! Figure 10 (§5.1): see `lacc_experiments::figures::fig10_missrates`.
fn main() {
    lacc_experiments::figures::fig10_missrates::FIGURE.main();
}
