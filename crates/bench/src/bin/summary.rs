fn main() {
    interweave_bench::figures::summary_main()
}
