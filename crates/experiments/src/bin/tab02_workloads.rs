//! Table 2 (§4.3): see `lacc_experiments::figures::tab02_workloads`.
fn main() {
    lacc_experiments::figures::tab02_workloads::FIGURE.main();
}
