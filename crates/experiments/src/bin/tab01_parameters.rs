//! Table 1 (§4): the architectural parameters of the evaluated machine,
//! printed from the live `SystemConfig` and the engine's message-size
//! constants so the table can never drift from the code.

use lacc_experiments::Cli;
use lacc_model::config::{DirectoryKind, MechanismKind, TrackingKind};
use lacc_sim::msg::{FLIT_BITS, LINE_MSG_FLITS};

fn main() {
    let cli = Cli::parse();
    let c = cli.base_config();
    println!("Table 1: Architectural parameters");
    println!("---------------------------------");
    println!("Number of Cores                 {} @ 1 GHz", c.num_cores);
    println!("Compute Pipeline per Core       In-Order, Single-Issue");
    println!("Physical Address Length         48 bits");
    println!();
    println!(
        "L1-I Cache per core             {} KB, {}-way, {} cycle",
        c.l1i.size_bytes / 1024,
        c.l1i.associativity,
        c.l1i.latency
    );
    println!(
        "L1-D Cache per core             {} KB, {}-way, {} cycle",
        c.l1d.size_bytes / 1024,
        c.l1d.associativity,
        c.l1d.latency
    );
    println!(
        "L2 Cache per core               {} KB, {}-way, {} cycle, Inclusive, R-NUCA",
        c.l2.size_bytes / 1024,
        c.l2.associativity,
        c.l2.latency
    );
    println!("Cache Line Size                 {} bytes", c.line_bytes);
    match c.directory {
        DirectoryKind::AckWise { pointers } => {
            println!("Directory Protocol              Invalidation-based MESI, ACKwise{pointers}");
        }
        DirectoryKind::FullMap => {
            println!("Directory Protocol              Invalidation-based MESI, Full-Map")
        }
    }
    println!("Num. of Memory Controllers      {}", c.num_mem_ctrls);
    println!("DRAM Bandwidth                  {} GBps per controller", c.dram_bytes_per_cycle);
    println!("DRAM Latency                    {} ns", c.dram_latency);
    println!();
    println!("Electrical 2-D Mesh, XY routing");
    println!(
        "Hop Latency                     {} cycles ({}-router, {}-link)",
        c.hop_router_cycles + c.hop_link_cycles,
        c.hop_router_cycles,
        c.hop_link_cycles
    );
    println!("Contention Model                Only link contention (infinite input buffers)");
    println!("Flit Width                      {FLIT_BITS} bits");
    println!("Header                          1 flit");
    println!("Word Length                     1 flit (64 bits)");
    println!("Cache Line Length               {} flits", LINE_MSG_FLITS - 1);
    println!();
    println!("Locality-Aware Coherence Protocol - Default Parameters");
    println!("Private Caching Threshold       PCT = {}", c.classifier.pct);
    match c.classifier.mechanism {
        MechanismKind::RatLevels { levels, rat_max } => {
            println!("Max Remote Access Threshold     RATmax = {rat_max}");
            println!("Number of RAT Levels            nRATlevels = {levels}");
        }
        MechanismKind::Timestamp => println!("Mechanism                       Timestamp (ideal)"),
    }
    match c.classifier.tracking {
        TrackingKind::Limited { k } => println!("Classifier                      Limited{k}"),
        TrackingKind::Complete => println!("Classifier                      Complete"),
    }
}
