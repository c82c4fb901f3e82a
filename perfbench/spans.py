"""In-memory span recorder for the traced benchmark run.

The recorder replaces the public functions that ``d2dcoop.harness`` and
``d2dcoop.cli`` look up by module-global name with timing wrappers, so
the package itself is not edited. A span is (name, start, end, parent
span, grid-point index, trial); spans of one trial share the record id
of the enclosing ``run_trial`` span. Counts that the layers do not
expose are computed from call arguments and labelled as computed in
``layer_metrics``.
"""

import inspect
import os
import time

from d2dcoop.bounds import BoundInvalidError
from d2dcoop.precoding import IllConditionedChannelError
from d2dcoop.quantization import bits_from_bandwidth

# global name looked up by d2dcoop.harness -> span name
HARNESS_SPANS = {
    "draw_environment": "channel.draw_environment",
    "sample_channel": "channel.sample_channel",
    "analytic_covariance": "channel.analytic_covariance",
    "inner_precoder": "channel.inner_precoder",
    "effective_channel": "precoding.effective_channel",
    "gram_inverse": "precoding.gram_inverse",
    "noncooperative_baseline_snr": "precoding.noncooperative_baseline_snr",
    "snr_denominators": "precoding.snr_denominators",
    "eigen_spectrum": "bounds.eigen_spectrum",
    "snr_lower_bound_terms": "bounds.snr_lower_bound_terms",
    "select_codeword": "codebook.select_codeword",
    "generate_codebook": "codebook.generate_codebook",
    "quantized_snr": "quantization.quantized_snr",
    "empirical_snr": "linklevel.empirical_snr",
    "run_trial": "harness.run_trial",
    "summarize_point": "harness.summarize_point",
}
# global name looked up by d2dcoop.cli -> span name
CLI_SPANS = {
    "preset_config": "config.preset_config",
    "write_outputs": "harness.write_outputs",
}

CALLS = (
    "channel.draw_environment", "channel.sample_channel",
    "channel.analytic_covariance", "channel.inner_precoder",
    "precoding.gram_inverse", "codebook.select_codeword",
    "codebook.generate_codebook", "quantization.quantized_snr",
    "linklevel.empirical_snr", "harness.run_trial",
)
BUSY = (
    "channel.draw_environment", "channel.sample_channel",
    "channel.analytic_covariance", "channel.inner_precoder",
    "precoding.effective_channel", "precoding.gram_inverse",
    "precoding.noncooperative_baseline_snr", "precoding.snr_denominators",
    "bounds.eigen_spectrum", "bounds.snr_lower_bound_terms",
    "codebook.select_codeword", "codebook.generate_codebook",
    "quantization.quantized_snr", "linklevel.empirical_snr",
    "harness.summarize_point", "harness.write_outputs", "config.preset_config",
)
# counts observed at a layer boundary (exceptions, fallbacks, bytes on disk)
OBSERVED = {
    "precoding.cond_fail": "count",
    "bounds.bound_invalid": "count",
    "quantization.zero_bit_links": "count",
    "harness.output_bytes": "B",
}
# counts derived from call arguments, not measured inside the layer
COMPUTED = {
    "codebook.codewords_scored": "count",
    "codebook.bytes_scored": "B",
    "codebook.generate_codebook.bytes": "B",
    "linklevel.symbols": "count",
}

COMPLEX128_BYTES = 16


class Recorder:
    """Spans and counters of one traced sweep, held in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, point_index, trial]
        self.counters = dict.fromkeys([*OBSERVED, *COMPUTED], 0)
        self._stack = []
        self._point_index = None

    def install(self, harness, cli) -> None:
        self._grid_points = harness.grid_points
        before = {
            "codebook.select_codeword": self._count_scored,
            "codebook.generate_codebook": self._count_codebook,
            "quantization.quantized_snr": self._count_zero_bit,
            "linklevel.empirical_snr": self._count_symbols,
        }
        errors = {
            "precoding.gram_inverse": (IllConditionedChannelError, "precoding.cond_fail"),
            "bounds.snr_lower_bound_terms": (BoundInvalidError, "bounds.bound_invalid"),
        }
        for module, table in ((harness, HARNESS_SPANS), (cli, CLI_SPANS)):
            for attr, name in table.items():
                wrapper = self._wrap(
                    name, getattr(module, attr), before.get(name), errors.get(name)
                )
                setattr(module, attr, wrapper)

    def _wrap(self, name, fn, before, error):
        signature = inspect.signature(fn)
        spans = self.spans
        stack = self._stack
        is_trial = name == "harness.run_trial"
        is_write = name == "harness.write_outputs"

        def wrapper(*args, **kwargs):
            if before is not None or is_trial:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
                if before is not None:
                    before(arguments)
            if is_trial:
                point, trial = self._record_id(arguments)
            elif stack:
                parent_span = spans[stack[-1]]
                point, trial = parent_span[4], parent_span[5]
            else:
                point, trial = None, None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, point, trial]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if error is not None and isinstance(exc, error[0]):
                    self.counters[error[1]] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if is_write:
                self.counters["harness.output_bytes"] += sum(
                    os.path.getsize(path) for path in result
                )
            return result

        return wrapper

    def _record_id(self, arguments):
        if self._point_index is None:
            self._point_index = {
                p: i for i, p in enumerate(self._grid_points(arguments["config"]))
            }
        return self._point_index[arguments["point"]], arguments["trial"]

    def _count_scored(self, arguments):
        codebook = arguments["codebook"]
        users = codebook.num_users
        self.counters["codebook.codewords_scored"] += len(codebook)
        self.counters["codebook.bytes_scored"] += (
            len(codebook) * users * users * COMPLEX128_BYTES
        )

    def _count_codebook(self, arguments):
        users = arguments["num_users"]
        self.counters["codebook.generate_codebook.bytes"] += (
            (1 << arguments["bits"]) * users * users * COMPLEX128_BYTES
        )

    def _count_zero_bit(self, arguments):
        if bits_from_bandwidth(arguments["link"]) == 0:
            self.counters["quantization.zero_bit_links"] += 1

    def _count_symbols(self, arguments):
        users = arguments["decoding"].shape[1]
        self.counters["linklevel.symbols"] += arguments["num_symbols"] * users

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}


def layer_metrics(spans, counters, main_start, main_end) -> dict:
    """Per-layer numbers of one traced sweep.

    ``busy_s`` is the summed duration of a layer's spans; ``self_s`` is
    that minus the time covered by its direct child spans. Spans nest
    strictly because the sweep runs on one thread. ``span_cover_share``
    is the part of the ``cli.main`` wall time covered by top-level spans;
    the rest is harness bookkeeping between layer calls.
    """
    calls = {}
    busy = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + (end - start)
        if parent >= 0:
            child_time[parent] += end - start
    trial_self = sum(
        (end - start) - child_time[i]
        for i, (name, start, end, *_) in enumerate(spans)
        if name == "harness.run_trial"
    )
    covered = sum(
        end - start
        for _, start, end, parent, _, _ in spans
        if parent < 0 and start >= main_start
    )
    metrics = {}
    for name in CALLS:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in BUSY:
        metrics[f"{name}.busy_s"] = (busy.get(name, 0.0), "s")
    metrics["harness.run_trial.self_s"] = (trial_self, "s")
    for name, unit in {**OBSERVED, **COMPUTED}.items():
        metrics[name] = (counters[name], unit)
    scored = counters["codebook.codewords_scored"]
    metrics["codebook.select_codeword.ns_per_codeword"] = (
        busy.get("codebook.select_codeword", 0.0) * 1e9 / scored if scored else 0.0,
        "ns",
    )
    metrics["trace.span_cover_share"] = (covered / (main_end - main_start), "share")
    return metrics
