"""One set-up of a benchmark workload, timed in a fresh interpreter.

    python3 hfbench/setup_probe.py <hfree src dir> <config file>

Imports hfree, parses the config and builds a fresh `ProcessState` at each
n of the config, plus a full `PairLedger` when the config sets
`ledger_mode = full`.  Prints the elapsed seconds.  `run.py` starts this
several times and reports the median as `setup_s`.
"""

import sys
import time


def main():
    src, cfg_path = sys.argv[1:3]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import hfree

    cfg = hfree.load_config(cfg_path)
    for n in cfg.n_list:
        state = hfree.ProcessState(n, cfg.rule)
        if cfg.ledger_mode == hfree.FULL:
            hfree.PairLedger(state, hfree.FULL)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
