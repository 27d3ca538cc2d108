//! Figure 13 (§5.3): see `lacc_experiments::figures::fig13_limitedk`.
fn main() {
    lacc_experiments::figures::fig13_limitedk::FIGURE.main();
}
