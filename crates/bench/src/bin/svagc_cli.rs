//! `svagc_cli`: the command-line driver (see [`svagc_bench::cli`]).

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = svagc_bench::cli::run(&args);
    print!("{}", out.stdout);
    eprint!("{}", out.stderr);
    std::process::exit(out.code);
}
