//! Topology ablation: the same kernels mapped onto torus, plain mesh
//! and 8-neighbour (diagonal) grids.
//!
//! The paper's uniform connectivity degree (`D_M = 5` on 3×3+) holds
//! on a torus; a plain mesh has weaker corners, so the conservative
//! degree bound drops to 3 and some kernels need a higher II or more
//! window slack. A diagonal grid (`D_M = 4+…`) goes the other way.
//!
//! Run with: `cargo run --release --example topology_ablation`

use monomap::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kernels = ["bitcount", "susan", "sha1", "gsm", "fft", "lud"];
    println!(
        "{:<12} | {:>14} | {:>14} | {:>14}",
        "benchmark", "torus (II/DM)", "mesh (II/DM)", "diagonal (II/DM)"
    );
    println!("{}", "-".repeat(66));
    // One service per topology; the kernels run against each as plain
    // requests.
    let services: Vec<(Topology, MappingService)> =
        [Topology::Torus, Topology::Mesh, Topology::Diagonal]
            .into_iter()
            .map(|topo| {
                let cgra = Cgra::with_topology(4, 4, topo)?;
                Ok((topo, MappingService::new(&cgra)))
            })
            .collect::<Result<_, cgra_arch::ArchError>>()?;
    for name in kernels {
        let dfg = suite::generate(name);
        let mut row = format!("{name:<12} |");
        for (_, service) in &services {
            let report = service.map(&MapRequest::new(EngineId::Decoupled, dfg.clone()));
            let degree = service.cgra().connectivity_degree();
            let cell = match report.outcome.ii() {
                Some(ii) => {
                    validate_report(&dfg, service.cgra(), &report)?;
                    format!("{ii:>9}/{degree:<4}")
                }
                None => format!("{:>9}/{degree:<4}", "-"),
            };
            row.push_str(&format!(" {cell} |"));
        }
        println!("{row}");
    }
    println!(
        "\nThe torus is the paper-faithful default (uniform degree; see docs/ARCHITECTURE.md).\n\
         On the mesh the conservative degree bound (min degree + 1) keeps the\n\
         monomorphism-existence argument sound at the cost of occasional II/slack."
    );
    Ok(())
}
