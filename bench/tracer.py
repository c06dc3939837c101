"""Per-layer spans recorded from outside the package.

``Tracer.install()`` replaces each traced function with a wrapper in every
package module that holds it by name (``pricers`` imports several
quadrature functions by name, so both namespaces get the same wrapper), and
``uninstall()`` puts the originals back.  A function missing from the
package (renamed or deleted by a later change) is skipped and its metrics
are simply absent.

Per traced function the tracer keeps:

* ``calls``: invocations, not counting ones nested inside an invocation of
  the same function (``_log_bessel_i_vec`` recurses on regime slices);
* ``elements``: size of the output array of those invocations (a computed
  count, see ``_ELEMENTS``);
* ``self_s``: span time minus the time of child spans, summed over every
  invocation, so recursion is neither lost nor counted twice;
* ``span_s``: span time of the counted invocations, the base of
  ``elements_per_s``.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

_MODULES = ("specfun", "transforms", "quadrature", "pricers")

# (metric name, defining module, attribute)
TARGETS = (
    ("specfun.bessel_i", "specfun", "_log_bessel_i_vec"),
    ("specfun.bessel_series", "specfun", "_log_bessel_series"),
    ("specfun.bessel_asym", "specfun", "_log_bessel_asym"),
    ("specfun.kummer_taylor", "specfun", "_log_kummer_taylor"),
    ("specfun.kummer_asym", "specfun", "_log_kummer_asym_sum"),
    ("specfun.log_gamma", "specfun", "_log_gamma_vec"),
    ("transforms.log_g", "transforms", "_log_g_vec"),
    ("transforms.log_h", "transforms", "_log_h_vec"),
    ("quadrature.log_density_grid", "quadrature", "log_density_grid"),
    ("quadrature.parseval_grid", "quadrature", "parseval_grid"),
    ("quadrature.parseval_contract", "quadrature", "parseval_contract"),
    ("quadrature.fourier_invert_1d", "quadrature", "fourier_invert_1d"),
    ("pricers.timer_kernel", "pricers", "_timer_h_tilde"),
    ("pricers.timer_w_matrix", "pricers", "_timer_w_matrix"),
    ("pricers.transition_grid", "pricers", "_transition_grid"),
    ("pricers.european", "pricers", "_price_european_detailed"),
)
LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name, _, _ in TARGETS))


def _first_array_size(out) -> int:
    """Size of the output array (first element of a tuple); a scalar is 1."""
    if isinstance(out, tuple) and out:
        out = out[0]
    return int(np.size(out)) if isinstance(out, np.ndarray) else 1


# Element counts that are not the size of the returned array: the Parseval
# grid counts its tensor nodes and the contraction the matrix it reduces.
_ELEMENTS = {
    "quadrature.parseval_grid":
        lambda out, args, kwargs: out.omega.size * out.eta.size,
    "quadrature.parseval_contract":
        lambda out, args, kwargs: int(np.size(
            args[1] if len(args) > 1 else kwargs["mat"])),
}


class _Stat:
    __slots__ = ("calls", "elements", "self_s", "span_s")

    def __init__(self):
        self.calls = 0
        self.elements = 0
        self.self_s = 0.0
        self.span_s = 0.0


class Tracer:
    def __init__(self):
        self._modules = {}
        for name in _MODULES:
            try:
                self._modules[name] = importlib.import_module(
                    f"three_halves.{name}")
            except ImportError:
                continue
        self.stats = {}
        self._stack = []  # child-time accumulators of the open spans
        self._depth = {}
        self._saved = []  # (module, attribute, original)

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, _Stat())
        count = _ELEMENTS.get(name, lambda out, args, kwargs:
                              _first_array_size(out))
        counts_nodes = name == "quadrature.fourier_invert_1d"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = self._depth.get(name, 0) == 0
            nodes = [0]
            if counts_nodes and args:
                # elements = contour nodes the characteristic function is
                # evaluated at; the CF is the first argument.
                cf = args[0]

                def counted_cf(w):
                    nodes[0] += int(np.size(w))
                    return cf(w)

                args = (counted_cf,) + args[1:]
            self._depth[name] = self._depth.get(name, 0) + 1
            child = [0.0]
            self._stack.append(child)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0
                self._stack.pop()
                self._depth[name] -= 1
                if self._stack:
                    self._stack[-1][0] += span
                stat.self_s += span - child[0]
            if outermost:
                stat.calls += 1
                stat.span_s += span
                stat.elements += (nodes[0] if counts_nodes
                                  else count(out, args, kwargs))
            return out

        return traced

    def install(self) -> None:
        for name, module, attr in TARGETS:
            home = self._modules.get(module)
            original = getattr(home, attr, None) if home else None
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for mod in self._modules.values():
                if getattr(mod, attr, None) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def metrics(self, passes: int) -> dict:
        """Per-pass metrics by name: per function, then per layer."""
        out = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        layer_calls = dict.fromkeys(LAYERS, 0)
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls / passes
            out[f"{name}.elements"] = st.elements / passes
            out[f"{name}.self_s"] = st.self_s / passes
            out[f"{name}.elements_per_s"] = (st.elements / st.span_s
                                             if st.span_s > 0 else 0.0)
            layer = name.split(".")[0]
            layer_self[layer] += st.self_s / passes
            layer_calls[layer] += st.calls / passes
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
            out[f"{layer}.calls"] = layer_calls[layer]
        return out
