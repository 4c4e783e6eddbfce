//! Runs every reproduction target in sequence (tables, sweeps, reports) —
//! the one-command regeneration of the paper's evaluation.
fn main() {
    let sep = "\n════════════════════════════════════════════════════════════════\n";
    print!("{}", mp_bench::tables::table4(200));
    print!("{sep}");
    print!("{}", mp_bench::tables::table3(200));
    print!("{sep}");
    print!("{}", mp_bench::sweeps::sweep_random(1000, 100));
    print!("{sep}");
    print!("{}", mp_bench::sweeps::sweep_fd(1000, 100));
    print!("{sep}");
    print!("{}", mp_bench::sweeps::sweep_afd(1000, 100));
    print!("{sep}");
    print!("{}", mp_bench::sweeps::sweep_nd(1000, 100));
    print!("{sep}");
    print!("{}", mp_bench::sweeps::sweep_od(1000));
    print!("{sep}");
    print!("{}", mp_bench::sweeps::sweep_dd(1000, 100));
    print!("{sep}");
    print!("{}", mp_bench::sweeps::sweep_ofd(200));
    print!("{sep}");
    print!("{}", mp_bench::sweeps::sweep_cfd(1000, 100));
    print!("{sep}");
    print!("{}", mp_bench::sweeps::sweep_defense(1000, 100));
    print!("{sep}");
    print!("{}", mp_bench::sweeps::sweep_distribution(1000, 100));
    print!("{sep}");
    print!("{}", mp_bench::reports::hfl_report());
    print!("{sep}");
    print!("{}", mp_bench::reports::identifiability_report());
    print!("{sep}");
    print!("{}", mp_bench::reports::discovery_report());
}
