//! The three workloads: one graph family each, one solver, one backend.

use apsp_core::djohnson::{distributed_johnson, distributed_johnson_native};
use apsp_core::{Backend, SparseApsp, SparseApspConfig};
use apsp_graph::generators::{grid2d, grid3d, WeightKind};
use apsp_graph::{Csr, DenseDist};
use apsp_simnet::RunReport;

/// Elimination-tree height of every workload.
pub const HEIGHT: u32 = 3;
/// Rank count at [`HEIGHT`]: `p = (2^h − 1)²`.
pub const RANKS: usize = 49;

/// Edge weights of every workload: the CLI's `--weights uniform`.
const WEIGHTS: WeightKind = WeightKind::Uniform { lo: 0.1, hi: 1.0 };

/// Which solver a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Solver {
    /// 2D-SPARSE-APSP through `SparseApsp::run` on the given backend.
    Sparse2d(Backend),
    /// `distributed_johnson_native` with [`RANKS`] ranks.
    DJohnson,
}

/// The generated graph of a workload.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// `grid2d(side, side)`.
    Mesh2d(usize),
    /// `grid3d(side, side, side)`.
    Mesh3d(usize),
}

/// A named workload.
pub struct Workload {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// The graph family and size.
    pub shape: Shape,
    /// Solver and backend.
    pub solver: Solver,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "mesh2d-native",
        shape: Shape::Mesh2d(48),
        solver: Solver::Sparse2d(Backend::Native),
    },
    Workload { name: "mesh2d-djohnson", shape: Shape::Mesh2d(48), solver: Solver::DJohnson },
    Workload {
        name: "mesh3d-sim",
        shape: Shape::Mesh3d(13),
        solver: Solver::Sparse2d(Backend::Sim),
    },
];

/// A solve's distances (input numbering) and its §3.1 report (all zeros
/// on the native backend).
pub struct Solved {
    /// All-pairs distances.
    pub dist: DenseDist,
    /// The machine's cost report.
    pub report: RunReport,
}

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The workload's graph for `seed`; the seed draws the edge weights.
    pub fn graph(&self, seed: u64) -> Csr {
        match self.shape {
            Shape::Mesh2d(side) => grid2d(side, side, WEIGHTS, seed),
            Shape::Mesh3d(side) => grid3d(side, side, side, WEIGHTS, seed),
        }
    }

    /// `true` when the timed solve runs on the simulated machine.
    pub fn on_sim(&self) -> bool {
        self.solver == Solver::Sparse2d(Backend::Sim)
    }

    /// One solve through the public entry the CLI uses for this workload.
    pub fn solve(&self, g: &Csr) -> Solved {
        match self.solver {
            Solver::Sparse2d(backend) => sparse2d(g, backend),
            Solver::DJohnson => {
                let out = distributed_johnson_native(g, RANKS);
                Solved { dist: out.dist, report: out.report }
            }
        }
    }

    /// The workload's schedule on the simulated machine: the same
    /// messages as the native run, with the §3.1 counts filled in.
    pub fn solve_on_sim(&self, g: &Csr) -> Solved {
        match self.solver {
            Solver::Sparse2d(_) => sparse2d(g, Backend::Sim),
            Solver::DJohnson => {
                let out = distributed_johnson(g, RANKS);
                Solved { dist: out.dist, report: out.report }
            }
        }
    }

    /// `apsp solve` flags selecting this workload's solver.
    pub fn cli_args(&self) -> [String; 6] {
        let (algorithm, backend) = match self.solver {
            Solver::Sparse2d(backend) => ("sparse2d", backend),
            Solver::DJohnson => ("djohnson", Backend::Native),
        };
        [
            "--algorithm".into(),
            algorithm.into(),
            "--backend".into(),
            backend.to_string(),
            "--height".into(),
            HEIGHT.to_string(),
        ]
    }
}

fn sparse2d(g: &Csr, backend: Backend) -> Solved {
    let config = SparseApspConfig { height: HEIGHT, backend, ..Default::default() };
    let run = SparseApsp::new(config).run(g);
    Solved { dist: run.dist, report: run.report }
}
