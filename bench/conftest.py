# The benchmark's own tests build the g(0, .) model and run Monte Carlo
# (over a minute); a pytest run over the whole tree leaves them out.  Run
# them with:  python3 -m pytest bench/tests
collect_ignore = ["tests"]
