//! Figure 8 (§5.1.1): see `lacc_experiments::figures::fig08_energy`.
fn main() {
    lacc_experiments::figures::fig08_energy::FIGURE.main();
}
