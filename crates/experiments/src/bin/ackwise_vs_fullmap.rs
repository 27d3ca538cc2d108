//! §5 preamble, ACKwise4 vs full-map: see `lacc_experiments::figures::ackwise_vs_fullmap`.
fn main() {
    lacc_experiments::figures::ackwise_vs_fullmap::FIGURE.main();
}
