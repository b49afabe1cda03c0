"""Constraint network compilation (thesis section 9.3, suggestion 3).

"Constraint networks can be compiled to improve the efficiency of
constraint propagation.  Compilation of constraint networks can take
several forms, ranging from simple topological sorts of the constraint
networks to complete proceduralization of the constraints."

This module implements both ends of that range for *acyclic functional*
networks (the delay networks of chapter 7 are the motivating case):

* :class:`CompiledNetwork` — an evaluation *plan*: the functional
  constraints reachable from a set of input variables, topologically
  sorted so one linear pass computes every derived value (no visited
  dictionaries, no agendas, no per-assignment spreading);
* :meth:`CompiledNetwork.proceduralize` — complete proceduralization:
  generates and ``compile()``s a single Python function whose body is
  the straight-line sequence of compute calls.

Compiled evaluation trades the declarative machinery's generality
(violation detection, rollback, incremental wavefronts) for raw speed —
the "tradeoff between flexibility ... and efficiency and rigidity of
procedural constraints" the thesis discusses in section 6.5.2.  The
``write_back`` entry point re-installs results into the variables with
propagation disabled, for callers that accept that trade.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from .functional import FunctionalConstraint
from .justification import APPLICATION
from .variable import Variable


class CompilationError(ValueError):
    """The network cannot be compiled (cyclic, or not purely functional)."""


class CompiledNetwork:
    """A topologically sorted evaluation plan over functional constraints.

    Parameters
    ----------
    inputs:
        The independent variables; every other variable reachable through
        functional constraints becomes a derived slot of the plan.
    """

    def __init__(self, inputs: Sequence[Variable]) -> None:
        self.inputs: List[Variable] = list(inputs)
        self.constraints: List[FunctionalConstraint] = []
        self.derived: List[Variable] = []
        observer = self._observer()
        if observer is None:
            self._collect_and_sort()
        else:
            with observer.compile_span("compile", inputs=len(self.inputs)):
                self._collect_and_sort()

    @property
    def context(self) -> Optional[Any]:
        """The propagation context of the plan's input variables."""
        return self.inputs[0].context if self.inputs else None

    def _observer(self) -> Optional[Any]:
        context = self.context
        return getattr(context, "observer", None) if context is not None \
            else None

    # -- construction -----------------------------------------------------------

    def _collect_and_sort(self) -> None:
        """Gather reachable functional constraints; topo-sort by producer."""
        producers: Dict[int, FunctionalConstraint] = {}
        frontier = list(self.inputs)
        seen_variables = {id(v) for v in self.inputs}
        reachable: List[FunctionalConstraint] = []
        seen_constraints: set = set()
        while frontier:
            variable = frontier.pop()
            for constraint in variable.all_constraints():
                if not isinstance(constraint, FunctionalConstraint):
                    continue
                if id(constraint) in seen_constraints:
                    continue
                if variable is constraint.result_variable:
                    continue  # only follow input -> result direction
                seen_constraints.add(id(constraint))
                reachable.append(constraint)
                result = constraint.result_variable
                producers[id(result)] = constraint
                if id(result) not in seen_variables:
                    seen_variables.add(id(result))
                    frontier.append(result)

        # Kahn's algorithm over the reachable producers.
        input_ids = {id(v) for v in self.inputs}
        remaining: Dict[int, int] = {}
        dependents: Dict[int, List[FunctionalConstraint]] = {}
        for constraint in reachable:
            count = 0
            for argument in constraint.inputs:
                if id(argument) in producers:
                    count += 1
                    dependents.setdefault(id(argument), []).append(constraint)
                elif id(argument) not in input_ids:
                    # an external constant input: treated as already known
                    pass
            remaining[id(constraint)] = count

        order: List[FunctionalConstraint] = []
        ready = [c for c in reachable if remaining[id(c)] == 0]
        while ready:
            constraint = ready.pop()
            order.append(constraint)
            result = constraint.result_variable
            for dependent in dependents.get(id(result), []):
                remaining[id(dependent)] -= 1
                if remaining[id(dependent)] == 0:
                    ready.append(dependent)
        if len(order) != len(reachable):
            raise CompilationError(
                "functional network contains a cycle; cannot compile")
        self.constraints = order
        self.derived = [c.result_variable for c in order]

    # -- evaluation ---------------------------------------------------------------

    def evaluate(self, input_values: Optional[Dict[Variable, Any]] = None
                 ) -> Dict[Variable, Any]:
        """One linear pass: values for every derived variable.

        ``input_values`` overrides current variable values; unspecified
        inputs (and external constants) read their stored values.  The
        network itself is not modified.

        A :class:`~repro.core.control.PropagationControl` installed on
        the inputs' context composes with the plan: constraints the
        control disables are skipped — they stay inert through the
        compiled path exactly as they do in the declarative engine, and
        their downstream consumers read the variables' stored values.
        """
        values: Dict[int, Any] = {}
        if input_values:
            for variable, value in input_values.items():
                values[id(variable)] = value

        def value_of(variable: Variable) -> Any:
            if id(variable) in values:
                return values[id(variable)]
            return variable.value

        context = self.context
        control = getattr(context, "control", None) if context is not None \
            else None

        results: Dict[Variable, Any] = {}
        for constraint in self.constraints:
            if control is not None and not control.allows(constraint):
                continue  # disabled: neither compute nor overwrite
            arguments = [value_of(v) for v in constraint.inputs]
            if any(a is None for a in arguments):
                result = None
            else:
                result = constraint.compute(arguments)
            values[id(constraint.result_variable)] = result
            results[constraint.result_variable] = result
        return results

    def write_back(self, input_values: Optional[Dict[Variable, Any]] = None
                   ) -> Dict[Variable, Any]:
        """Evaluate and store the results into the derived variables.

        Storage happens with propagation disabled — the compiled plan has
        already performed the equivalent propagation.  Inputs passed in
        ``input_values`` are stored too.

        When a propagation round is already running (a compiled plan
        invoked from a hook or handler mid-round), the stores instead join
        the active round's frame stack via ``context.assign``: they are
        recorded in the round's visited set, so a later violation rolls
        them back with everything else.
        """
        observer = self._observer()
        if observer is None:
            return self._write_back(input_values)
        with observer.compile_span("write_back",
                                   constraints=len(self.constraints)):
            return self._write_back(input_values)

    def _write_back(self, input_values: Optional[Dict[Variable, Any]]
                    ) -> Dict[Variable, Any]:
        results = self.evaluate(input_values)
        context = self.context
        if context is None:
            return results

        def store_all() -> None:
            if input_values:
                for variable, value in input_values.items():
                    variable.set(value, APPLICATION)
            for variable, value in results.items():
                if value is not None:
                    variable.set(value, APPLICATION)

        if context.in_round:
            store_all()
        else:
            with context.propagation_disabled():
                store_all()
        return results

    # -- complete proceduralization ---------------------------------------------------

    def proceduralize(self) -> Callable[..., Dict[str, Any]]:
        """Generate one straight-line Python function for the whole plan.

        The function takes the input variables' values as positional
        arguments (in ``self.inputs`` order) and returns a dict mapping
        derived slot names to values.  Generated via real source-code
        compilation — the "complete proceduralization" pole of the
        thesis's compilation spectrum.
        """
        slot_names: Dict[int, str] = {}
        for index, variable in enumerate(self.inputs):
            slot_names[id(variable)] = f"in_{index}"
        namespace: Dict[str, Any] = {}
        lines = ["def _compiled({}):".format(
            ", ".join(slot_names[id(v)] for v in self.inputs))]
        for index, constraint in enumerate(self.constraints):
            fn_name = f"_fn_{index}"
            namespace[fn_name] = constraint.compute
            argument_exprs = []
            for argument in constraint.inputs:
                name = slot_names.get(id(argument))
                if name is None:  # external constant: freeze current value
                    name = f"const_{len(namespace)}"
                    namespace[name] = argument.value
                    slot_names[id(argument)] = name
                argument_exprs.append(name)
            result_name = f"d_{index}"
            slot_names[id(constraint.result_variable)] = result_name
            lines.append(f"    {result_name} = {fn_name}"
                         f"([{', '.join(argument_exprs)}])")
        result_items = ", ".join(
            f"{slot_names[id(c.result_variable)]!r}: "
            f"{slot_names[id(c.result_variable)]}"
            for c in self.constraints)
        lines.append(f"    return {{{result_items}}}")
        source = "\n".join(lines)
        code = compile(source, "<compiled-constraint-network>", "exec")
        exec(code, namespace)
        compiled = namespace["_compiled"]
        compiled.source = source
        compiled.slot_of = {variable: slot_names[id(variable)]
                            for variable in self.derived}
        return compiled


def compile_network(inputs: Sequence[Variable]) -> CompiledNetwork:
    """Compile the functional network downstream of ``inputs``."""
    return CompiledNetwork(inputs)
