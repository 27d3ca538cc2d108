//! Extension, benefit vs core count: see `lacc_experiments::figures::ext_scalability`.
fn main() {
    lacc_experiments::figures::ext_scalability::FIGURE.main();
}
