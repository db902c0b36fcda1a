fn main() {
    interweave_bench::figures::main(env!("CARGO_BIN_NAME"))
}
