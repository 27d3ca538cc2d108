//! Figure 9 (§5.1.2): see `lacc_experiments::figures::fig09_completion`.
fn main() {
    lacc_experiments::figures::fig09_completion::FIGURE.main();
}
