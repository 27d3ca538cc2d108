//! Figure 14 (§5.4): see `lacc_experiments::figures::fig14_oneway`.
fn main() {
    lacc_experiments::figures::fig14_oneway::FIGURE.main();
}
