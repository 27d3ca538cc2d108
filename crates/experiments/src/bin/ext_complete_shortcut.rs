//! Extension, Complete + learning shortcut: see `lacc_experiments::figures::ext_complete_shortcut`.
fn main() {
    lacc_experiments::figures::ext_complete_shortcut::FIGURE.main();
}
