//! §3.6 storage overheads: see `lacc_experiments::figures::tab03_storage`.
fn main() {
    lacc_experiments::figures::tab03_storage::FIGURE.main();
}
