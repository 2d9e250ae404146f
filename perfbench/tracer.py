"""Span tracer for the traced benchmark run.

The tracer wraps public ``dwropt`` functions from outside the package.
A function imported with ``from ... import`` is bound in several module
namespaces (``dwropt.driver`` binds ``newton_standard``, ``build_space``
and others), so every ``dwropt`` module attribute that is the original
object is replaced, not only the one in the defining module.  Methods are
wrapped once, on their class.  ``uninstall`` puts every original back.

Each call records a span: name, start, end and the span that was open
when it began.  Spans are kept in flat arrays and written out when the
run ends.  A module's self time is the duration of its spans minus the
part covered by their direct child spans.
"""

import functools
import sys
import time
from array import array

import numpy as np

#: (module, attribute) of every wrapped callable; the span is named
#: "<module>.<attribute>" and charged to that module
TARGETS = (
    ("driver", "run_adaptive"),
    ("driver", "emit_outputs"),
    ("mesh", "refine"),
    ("mesh", "dorfler_mark"),
    ("fem", "build_space"),
    ("fem", "assemble_matrix"),
    ("fem", "assemble_vector"),
    ("fem", "integrate"),
    ("fem", "Factorization.__init__"),
    ("fem", "Factorization.solve"),
    ("fem", "Factorization.solve_transposed"),
    ("fem", "transfer"),
    ("kernels", "local_matrix"),
    ("kernels", "local_vector"),
    ("kernels", "eval_values"),
    ("kernels", "eval_gradients"),
    ("kernels", "cell_integrals"),
    ("problem", "ProblemDefinition.j_value"),
    ("reduced", "state_residual"),
    ("reduced", "newton_standard"),
    ("reduced", "newton_reduced_adaptive"),
    ("reduced", "solve_reduced_system"),
    ("reduced", "hessvec"),
    ("estimator", "solve_reduced_adjoint"),
    ("estimator", "compute_eta_k"),
    ("estimator", "localize_pu"),
    ("estimator", "recover_v"),
    ("estimator", "recover_y"),
    ("multigoal", "build_combined"),
    ("multigoal", "CombinedGoal.refreeze"),
)

MODULES = ("driver", "mesh", "fem", "kernels", "problem", "reduced",
           "estimator", "multigoal")

ROOT_SPAN = "driver.run_adaptive"

#: inclusive seconds: metric -> spans summed (outermost calls only)
TIMED = {
    "driver.emit_s": ("driver.emit_outputs",),
    "mesh.refine_s": ("mesh.refine",),
    "mesh.mark_s": ("mesh.dorfler_mark",),
    "fem.build_space_s": ("fem.build_space",),
    "fem.assemble_matrix_s": ("fem.assemble_matrix",),
    "fem.assemble_vector_s": ("fem.assemble_vector",),
    "fem.integrate_s": ("fem.integrate",),
    "fem.factorize_s": ("fem.Factorization.__init__",),
    "fem.lu_solve_s": ("fem.Factorization.solve",
                       "fem.Factorization.solve_transposed"),
    "fem.transfer_s": ("fem.transfer",),
    "kernels.local_matrix_s": ("kernels.local_matrix",),
    "kernels.local_vector_s": ("kernels.local_vector",),
    "kernels.eval_s": ("kernels.eval_values", "kernels.eval_gradients"),
    "kernels.cell_integrals_s": ("kernels.cell_integrals",),
    "problem.j_value_s": ("problem.ProblemDefinition.j_value",),
    "reduced.newton_enriched_s": ("reduced.newton_standard",),
    "reduced.newton_low_s": ("reduced.newton_reduced_adaptive",),
    "reduced.cg_s": ("reduced.solve_reduced_system",),
    "reduced.hessvec_s": ("reduced.hessvec",),
    "estimator.adjoint_s": ("estimator.solve_reduced_adjoint",),
    "estimator.eta_k_s": ("estimator.compute_eta_k",),
    "estimator.localize_pu_s": ("estimator.localize_pu",),
    "estimator.recover_s": ("estimator.recover_v", "estimator.recover_y"),
    "multigoal.combine_s": ("multigoal.build_combined",
                            "multigoal.CombinedGoal.refreeze"),
}

#: call counts: metric -> spans counted
COUNTED = {
    "fem.build_space_calls": ("fem.build_space",),
    "fem.assemble_matrix_calls": ("fem.assemble_matrix",),
    "fem.assemble_vector_calls": ("fem.assemble_vector",),
    "fem.integrate_calls": ("fem.integrate",),
    "fem.factorizations": ("fem.Factorization.__init__",),
    "fem.lu_solves": ("fem.Factorization.solve",
                      "fem.Factorization.solve_transposed"),
    "kernels.local_matrix_calls": ("kernels.local_matrix",),
    "kernels.local_vector_calls": ("kernels.local_vector",),
    "problem.j_value_calls": ("problem.ProblemDefinition.j_value",),
    "reduced.state_residuals": ("reduced.state_residual",),
    "reduced.cg_solves": ("reduced.solve_reduced_system",),
    "reduced.hessvecs": ("reduced.hessvec",),
    "multigoal.refreezes": ("multigoal.build_combined",
                            "multigoal.CombinedGoal.refreeze"),
}

#: unit of every per-layer metric, in report order
UNITS = {"driver.final_level_s": "s", "driver.levels": "count"}
UNITS.update((name, "s") for name in TIMED)
UNITS.update((name, "count") for name in COUNTED)
UNITS.update((f"{module}.self_s", "s") for module in MODULES)
UNITS.update({
    "reduced.newton_iterations": "count",
    "fem.lu_nnz_max": "nnz",
    "kernels.flop": "flop_computed",
    "kernels.bytes": "bytes_computed",
    "trace.solve_s": "s",
    "trace.overhead_s": "s",
})

# Kernel cost model, computed from argument shapes (not measured): each
# argument array is read once and the result written once; flop counts
# the multiply-adds of the contraction written out directly.


def _nbytes(*arrays):
    return sum(a.nbytes for a in arrays if a is not None)


def _local_matrix_cost(args, out):
    wdet, phi_t, gphi_t, phi_r, gphi_r, inv_h, K, cf = args
    nc, nq = wdet.shape
    nt, nr = phi_t.shape[1], phi_r.shape[1]
    flop = 0
    if K is not None:  # K.grad(trial), then grad(test).(K.grad(trial))
        flop += nc * nq * (8 * nr + 4 * nt * nr)
    if cf is not None:
        flop += nc * nq * (2 * nt * nr + 1)
    return flop, _nbytes(*args, out)


def _local_vector_cost(args, out):
    wdet, phi_t, gphi_t, inv_h, gf, hf = args
    nc, nq = wdet.shape
    nt = phi_t.shape[1]
    flop = nc * nq * nt * ((2 if gf is not None else 0) + (4 if hf is not None else 0))
    return flop, _nbytes(*args, out)


def _eval_values_cost(args, out):
    dofs, coefs, phi = args
    nq = phi.shape[0]
    return 2 * dofs.size * nq, _nbytes(dofs, phi, out) + 8 * dofs.size


def _eval_gradients_cost(args, out):
    dofs, coefs, gphi, inv_h = args
    nq = gphi.shape[0]
    flop = 4 * dofs.size * nq + 2 * out.shape[0] * nq
    return flop, _nbytes(dofs, gphi, inv_h, out) + 8 * dofs.size


def _cell_integrals_cost(args, out):
    wdet, field = args
    return 2 * wdet.size, _nbytes(wdet, field, out)


_KERNEL_COST = {
    "kernels.local_matrix": _local_matrix_cost,
    "kernels.local_vector": _local_vector_cost,
    "kernels.eval_values": _eval_values_cost,
    "kernels.eval_gradients": _eval_gradients_cost,
    "kernels.cell_integrals": _cell_integrals_cost,
}


class Tracer:
    """Records a span for every call into the wrapped dwropt functions."""

    def __init__(self):
        self.names = [f"{module}.{attr}" for module, attr in TARGETS]
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.lu_nnz_max = 0
        self.flop = 0
        self.bytes = 0
        self._stack = [-1]
        self._patched = []  # (owner, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every target in every dwropt namespace that binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        namespaces = [mod for name, mod in sorted(sys.modules.items())
                      if name == "dwropt" or name.startswith("dwropt.")]
        for i, (module, attr) in enumerate(TARGETS):
            owner_name, _, leaf = attr.rpartition(".")
            mod = sys.modules[f"dwropt.{module}"]
            if owner_name:
                owner = getattr(mod, owner_name)
                original = owner.__dict__[leaf]
                self._patch(owner, leaf, self._wrap(i, original))
                continue
            original = getattr(mod, leaf)
            wrapper = self._wrap(i, original)
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def restored(self):
        """Names in dwropt modules or target classes still bound to a wrapper."""
        owners = [mod for name, mod in sorted(sys.modules.items())
                  if name == "dwropt" or name.startswith("dwropt.")]
        owners += [getattr(sys.modules[f"dwropt.{module}"], attr.rpartition(".")[0])
                   for module, attr in TARGETS if "." in attr]
        return [f"{getattr(owner, '__name__', owner)}.{name}"
                for owner in owners for name, value in vars(owner).items()
                if hasattr(value, "_perfbench_span")]

    def _patch(self, owner, name, wrapper):
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def _wrap(self, i, fn):
        name = self.names[i]
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        cost = _KERNEL_COST.get(name)
        is_factor = name == "fem.Factorization.__init__"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(i)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if cost is not None:
                flop, nbytes = cost(args, result)
                self.flop += flop
                self.bytes += nbytes
            elif is_factor:
                # SuperLU's own count of stored L+U entries; the .L/.U
                # properties would build sparse copies
                self.lu_nnz_max = max(self.lu_nnz_max, int(args[0]._lu.nnz))
            return result

        wrapper._perfbench_span = name
        return wrapper

    # -- output -------------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int64),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def save(self, path):
        """Write every span: name table plus name id, parent, start, end."""
        name_id, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id,
                 parent=parent, start=start, end=end)

    def summarize(self):
        """Per-layer metrics from the recorded spans.

        Returns (metrics, self_sum_s, root_s, nesting_ok): ``metrics`` maps
        metric name to value, ``self_sum_s`` is the sum of the module self
        times inside the root span, ``root_s`` that span's duration, and
        ``nesting_ok`` whether every span lies inside its parent.
        """
        name_id, parent, start, end = self.arrays()
        n = len(name_id)
        dur = end - start
        has_parent = parent >= 0
        pidx = np.where(has_parent, parent, 0)
        nesting_ok = bool(np.all(
            (start[has_parent] >= start[pidx[has_parent]])
            & (end[has_parent] <= end[pidx[has_parent]])
        ))
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child

        root_id = self.names.index(ROOT_SPAN)
        roots = np.nonzero((name_id == root_id) & ~has_parent)[0]
        if len(roots) != 1:
            raise RuntimeError(f"expected one {ROOT_SPAN} span, found {len(roots)}")
        top = np.nonzero(~has_parent)[0]
        later = top[top > roots[0]]
        stop = int(later[0]) if len(later) else n
        inside = slice(int(roots[0]), stop)  # spans are recorded in preorder

        module_of = np.array([MODULES.index(nm.split(".")[0]) for nm in self.names])
        per_module = np.bincount(module_of[name_id[inside]], weights=self_time[inside],
                                 minlength=len(MODULES))

        metrics = {}
        for metric, span_names in TIMED.items():
            member = np.isin(name_id, [self.names.index(s) for s in span_names])
            nested = np.zeros(n, dtype=bool)
            anc = parent.copy()
            while np.any(anc >= 0):
                ok = anc >= 0
                nested[ok] |= member[anc[ok]]
                anc[ok] = parent[anc[ok]]
            metrics[metric] = float(dur[member & ~nested].sum())
        for metric, span_names in COUNTED.items():
            ids = [self.names.index(s) for s in span_names]
            metrics[metric] = int(np.isin(name_id, ids).sum())
        for k, module in enumerate(MODULES):
            metrics[f"{module}.self_s"] = float(per_module[k])
        metrics["fem.lu_nnz_max"] = self.lu_nnz_max
        metrics["kernels.flop"] = self.flop
        metrics["kernels.bytes"] = self.bytes
        return metrics, float(per_module.sum()), float(dur[roots[0]]), nesting_ok
