"""Re-record the benchmark's reference outputs, and on request its model.

    python3 bench/record.py            # reference.json
    python3 bench/record.py --model    # model.json, then reference.json

The model was trained once with train_mwle on a corpus of its own seed
(workloads.MODEL_SEED), disjoint from every workload corpus, and is stored
in model.json; online_detect and signal_ingest load it with read_model_json,
so their verdicts depend only on the inference layers and a trainer change
cannot move them.  reference.json holds the outputs of each workload's
untraced pass over the reference corpus, for every size.  Re-record only
when a change is meant to alter those outputs, and say why.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from run import REFERENCE_PATH, prepare
from tracing import NullTracer


def record_model():
    from dataclasses import replace

    from sybilscatter import build_corpus, generate_dataset, train_mwle
    from sybilscatter.fileio import write_model_json
    from sybilscatter.harness import DEFAULT_CORPUS_SPEC

    import workloads

    spec = replace(DEFAULT_CORPUS_SPEC, n_scenarios=workloads.MODEL_SCENARIOS)
    configs, seeds = build_corpus(spec, workloads.MODEL_SEED)
    dataset = generate_dataset(configs, seeds, n_tags=workloads.N_TAGS,
                               profile_len=workloads.PROFILE_LEN)
    write_model_json(workloads.MODEL_PATH, train_mwle(dataset.training_samples()))


def record_reference() -> dict:
    import workloads

    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        reference[name] = {}
        for size in workloads.SIZES:
            tracer = NullTracer()
            state = workload.setup(workloads.REFERENCE_SEED, size, tracer, Counter())
            artifacts = workload.run_pass(state, "ref", tracer, Counter(), [])
            reference[name][size] = workload.outputs(artifacts)
            print(name, size, reference[name][size], file=sys.stderr)
    return reference


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--model", action="store_true",
                        help="retrain model.json first")
    args = parser.parse_args(argv)
    prepare()
    if args.model:
        record_model()
    reference = record_reference()
    REFERENCE_PATH.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
