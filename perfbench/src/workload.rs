//! The three workloads, their inputs, and the seeded op order.
//!
//! The program under test only ever receives generated Ensemble sources
//! (and, for the C-OpenCL comparison, generated input arrays). The seed
//! picks the order of the apps inside each batch job and the order of
//! the serving request mix; sizes are fixed per workload.

use bench::apps_ens;
use ensemble_ocl::Array2;
use oclsim::{DeviceType, ProfileSink};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Four kernel-heavy apps; the kernel engine does most host work.
    KernelBound,
    /// LUD: many small dispatches; VM and dispatch bookkeeping dominate.
    DispatchBound,
    /// Tiny apps through `Server::submit`; per-request fixed costs dominate.
    ServeMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::KernelBound,
        Workload::DispatchBound,
        Workload::ServeMixed,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KernelBound => "kernel-bound",
            Workload::DispatchBound => "dispatch-bound",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True for the workload whose ops are serving requests.
    pub fn is_serving(self) -> bool {
        self == Workload::ServeMixed
    }

    /// The apps of the workload at `scale`, in their canonical order.
    pub fn apps(self, scale: Scale) -> Vec<App> {
        let full = scale == Scale::Full;
        let pick = |f: usize, t: usize| if full { f } else { t };
        match self {
            Workload::KernelBound => vec![
                App::matmul(pick(64, 8)),
                App::mandelbrot(pick(64, 8), pick(150, 10)),
                App::reduction(pick(1 << 16, 256)),
                App::docrank(pick(1024, 64), pick(10, 2)),
            ],
            Workload::DispatchBound => vec![App::lud(pick(48, 8))],
            Workload::ServeMixed => vec![
                App::matmul(pick(16, 8)),
                App::reduction(pick(1024, 256)),
                App::lud(pick(16, 8)),
            ],
        }
    }
}

/// Input sizes: the measured ones, or tiny ones for the smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Sizes small enough for a debug-build test.
    Tiny,
}

impl Scale {
    /// The scale's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }

    /// Look a scale up by name.
    pub fn parse(name: &str) -> Option<Scale> {
        [Scale::Full, Scale::Tiny]
            .into_iter()
            .find(|s| s.name() == name)
    }
}

/// One application instance: its Ensemble source and the matching
/// hand-written C-OpenCL host path.
#[derive(Debug, Clone)]
pub struct App {
    /// App name, e.g. `matmul`.
    pub name: &'static str,
    /// The generated Ensemble source (GPU-targeted).
    pub source: String,
    /// The C-OpenCL counterpart.
    pub copencl: CApp,
}

/// Parameters of an app's C-OpenCL host path.
#[derive(Debug, Clone, Copy)]
pub enum CApp {
    /// `n`×`n` matrix multiply.
    Matmul(usize),
    /// `n`×`n` Mandelbrot with an iteration cap.
    Mandelbrot(usize, u32),
    /// `n`×`n` LU decomposition.
    Lud(usize),
    /// Minimum of `n` floats.
    Reduction(usize),
    /// Ranking of `n` documents. The C path runs its own kernel for a
    /// fixed number of rounds, so its times do not compare with the
    /// Ensemble run.
    Docrank(usize),
}

impl App {
    fn matmul(n: usize) -> App {
        App {
            name: "matmul",
            source: apps_ens::matmul(n, "GPU"),
            copencl: CApp::Matmul(n),
        }
    }

    fn mandelbrot(n: usize, iters: usize) -> App {
        App {
            name: "mandelbrot",
            source: apps_ens::mandelbrot(n, iters, "GPU"),
            copencl: CApp::Mandelbrot(n, iters as u32),
        }
    }

    fn lud(n: usize) -> App {
        App {
            name: "lud",
            source: apps_ens::lud(n, "GPU"),
            copencl: CApp::Lud(n),
        }
    }

    fn reduction(n: usize) -> App {
        App {
            name: "reduction",
            source: apps_ens::reduction(n, "GPU"),
            copencl: CApp::Reduction(n),
        }
    }

    fn docrank(docs: usize, rounds: usize) -> App {
        App {
            name: "docrank",
            source: apps_ens::docrank(docs, rounds, "GPU"),
            copencl: CApp::Docrank(docs),
        }
    }
}

/// Generated inputs of a C-OpenCL run, made outside the timed call.
pub enum CInput {
    /// Two matrices.
    Matmul(Array2, Array2),
    /// Image size and iteration cap.
    Mandelbrot(usize, u32),
    /// The matrix to factor.
    Lud(Array2),
    /// The values to reduce.
    Reduction(Vec<f32>),
    /// Corpus and template.
    Docrank(Vec<f32>, Vec<f32>),
}

/// What a C-OpenCL run returned.
#[derive(Debug, Clone, PartialEq)]
pub enum COutput {
    /// A float matrix (matmul, LUD).
    Matrix(Vec<f32>),
    /// Integer cells (Mandelbrot counts, docrank flags).
    Ints(Vec<i32>),
    /// One float (reduction).
    Scalar(f32),
}

impl CApp {
    /// Generate the inputs (deterministic per size).
    pub fn input(self) -> CInput {
        use ensemble_apps::*;
        match self {
            CApp::Matmul(n) => {
                let (a, b) = matmul::generate(n);
                CInput::Matmul(a, b)
            }
            CApp::Mandelbrot(n, iters) => CInput::Mandelbrot(n, iters),
            CApp::Lud(n) => CInput::Lud(lud::generate(n)),
            CApp::Reduction(n) => CInput::Reduction(reduction::generate(n)),
            CApp::Docrank(n) => {
                let (docs, tpl) = docrank::generate(n);
                CInput::Docrank(docs, tpl)
            }
        }
    }

    /// Run the hand-written host path on the simulated GPU.
    pub fn run(input: CInput, profile: ProfileSink) -> COutput {
        use ensemble_apps::*;
        let gpu = DeviceType::Gpu;
        match input {
            CInput::Matmul(a, b) => {
                COutput::Matrix(matmul::run_copencl(a, b, gpu, profile).as_slice().to_vec())
            }
            CInput::Mandelbrot(n, iters) => {
                COutput::Ints(mandelbrot::run_copencl(n, n, iters, gpu, profile))
            }
            CInput::Lud(m) => {
                COutput::Matrix(lud::run_copencl(m, gpu, profile).as_slice().to_vec())
            }
            CInput::Reduction(v) => COutput::Scalar(reduction::run_copencl(v, gpu, profile)),
            CInput::Docrank(docs, tpl) => COutput::Ints(docrank::run_copencl(
                docs,
                tpl,
                docrank::threshold(),
                gpu,
                profile,
            )),
        }
    }

    /// The app's sequential `reference()` result.
    pub fn reference(self) -> COutput {
        use ensemble_apps::*;
        match self.input() {
            CInput::Matmul(a, b) => COutput::Matrix(matmul::reference(&a, &b).as_slice().to_vec()),
            CInput::Mandelbrot(n, iters) => COutput::Ints(mandelbrot::reference(n, n, iters)),
            CInput::Lud(m) => COutput::Matrix(lud::reference(m).as_slice().to_vec()),
            CInput::Reduction(v) => COutput::Scalar(reduction::reference(&v)),
            CInput::Docrank(docs, tpl) => {
                COutput::Ints(docrank::reference(&docs, &tpl, docrank::threshold()))
            }
        }
    }

    /// Whether `got` matches `want` (the reference).
    ///
    /// * Matrices are float results whose rounding differs from the
    ///   sequential reference, so they compare within the tolerance the
    ///   apps' own tests use.
    /// * Mandelbrot escape counts may differ on at most 1 pixel in 256:
    ///   on the set's boundary the escape iteration is chaotic, so a
    ///   last-bit difference in any float operation changes it. At 64×64
    ///   with 150 iterations the simulated device differs from the
    ///   sequential reference on 4 of 4096 pixels, identically on every
    ///   kernel engine.
    /// * Everything else compares exactly.
    pub fn matches(self, got: &COutput, want: &COutput) -> bool {
        let rel = match self {
            CApp::Lud(_) => 1e-2,
            _ => 1e-3,
        };
        match (self, got, want) {
            (_, COutput::Matrix(g), COutput::Matrix(w)) => {
                g.len() == w.len()
                    && g.iter()
                        .zip(w)
                        .all(|(x, y)| (x - y).abs() <= rel * x.abs().max(1.0))
            }
            (CApp::Mandelbrot(..), COutput::Ints(g), COutput::Ints(w)) => {
                g.len() == w.len()
                    && g.iter().zip(w).filter(|(x, y)| x != y).count() <= g.len() / 256
            }
            _ => got == want,
        }
    }
}

/// SplitMix64: a tiny, well-mixed generator, so the op order depends on
/// the seed alone and not on any library's stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniformly shuffled `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            p.swap(i, j);
        }
        p
    }
}

/// The app order of batch job `job` under `seed`: each job runs every app
/// once, in its own seeded order.
pub fn job_order(seed: u64, job: u64, napps: usize) -> Vec<usize> {
    Rng::new(seed, job).permutation(napps)
}

/// The app of serving request `i` under `seed`: the mix cycles through
/// every app once per block of `napps` requests, in a seeded order per
/// block, so every prefix of the stream stays balanced.
pub fn request_app(seed: u64, i: u64, napps: usize) -> usize {
    let block = i / napps as u64;
    job_order(seed, block, napps)[(i % napps as u64) as usize]
}
