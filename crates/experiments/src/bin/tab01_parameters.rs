//! Table 1 (§4): see `lacc_experiments::figures::tab01_parameters`.
fn main() {
    lacc_experiments::figures::tab01_parameters::FIGURE.main();
}
