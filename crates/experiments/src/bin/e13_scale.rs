//! CLI wrapper for the `e13_scale` experiment; see the library module
//! docs. Emits the kernel-throughput ladder. Quick mode is the CI
//! smoke ladder; `--full` climbs the arena kernel to 10⁶ identities.
use tg_experiments::exp::e13_scale;
use tg_experiments::Options;

fn main() {
    let opts = Options::from_env();
    e13_scale::run(&opts).emit(&opts);
}
