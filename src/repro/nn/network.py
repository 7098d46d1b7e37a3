"""Lower a :class:`~repro.graph.NetworkSpec` to runnable numpy modules.

:class:`GraphNetwork` walks the spec's DAG, instantiates one module per
node (plus fused activations for Conv2D/Dense specs), and implements
forward and backward over the DAG — gradients accumulate at fan-out
points, and Concat/Add nodes split gradients back to their producers.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

import numpy as np

from repro import obs
from repro.graph import layer_spec as spec
from repro.graph.network_spec import LayerNode, NetworkSpec
from repro.nn import layers
from repro.nn.infer import (
    ArenaRegistry,
    BufferArena,
    add_tensors,
    concat_channels,
    liveness_release_schedule,
    release_dead,
)
from repro.nn.module import Identity, Module, Parameter


def _activation_module(kind: str) -> Module:
    if kind == "relu":
        return layers.ReLU()
    if kind == "identity":
        return Identity()
    raise ValueError(f"unsupported activation {kind!r}")


class _Node:
    """Runtime node: a module (or structural op) plus graph wiring."""

    def __init__(self, node: LayerNode, module: Optional[Module],
                 activation: Optional[Module]) -> None:
        self.name = node.name
        self.spec = node.spec
        self.inputs = node.inputs
        self.module = module
        self.activation = activation


class GraphNetwork(Module):
    """Executable numpy network built from a layer-graph spec."""

    def __init__(self, network: NetworkSpec,
                 rng: Optional[np.random.Generator] = None,
                 batch_norm: bool = False) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.spec = network
        self.batch_norm = batch_norm
        self._nodes: List[_Node] = []
        self._bn: Dict[str, layers.BatchNorm2D] = {}
        for node in network.nodes:
            self._nodes.append(self._lower(node, rng))
        self._activations: Dict[str, np.ndarray] = {}
        # Memory planner state for eval-mode forward: per-step release
        # lists from graph liveness, plus the buffer-recycling arenas.
        # Arenas are unlocked, so the registry hands each thread its
        # own replica — eval-mode forward is reentrant across threads.
        self._input_names = {n.name for n in self._nodes
                             if isinstance(n.spec, spec.Input)}
        self._release_after = liveness_release_schedule(
            self._nodes, self._input_names)
        self._arenas = ArenaRegistry()

    # -- lowering ------------------------------------------------------------

    def _lower(self, node: LayerNode, rng: np.random.Generator) -> _Node:
        s = node.spec
        module: Optional[Module] = None
        activation: Optional[Module] = None
        if isinstance(s, spec.Conv2D):
            module = layers.Conv2D(
                s.in_channels, s.out_channels, s.kernel_size,
                stride=s.stride, padding=s.padding, groups=s.groups,
                bias=s.bias, rng=rng, name=node.name,
            )
            activation = _activation_module(s.activation)
            if self.batch_norm:
                bn = layers.BatchNorm2D(s.out_channels, name=f"{node.name}.bn")
                self._bn[node.name] = bn
        elif isinstance(s, spec.Dense):
            module = layers.Dense(s.in_features, s.out_features,
                                  bias=s.bias, rng=rng, name=node.name)
            activation = _activation_module(s.activation)
        elif isinstance(s, spec.Pool2D):
            cls = layers.MaxPool2D if s.mode == "max" else layers.AvgPool2D
            module = cls(s.kernel_size, s.stride, s.padding)
        elif isinstance(s, spec.GlobalAvgPool):
            module = layers.GlobalAvgPool()
        elif isinstance(s, spec.Flatten):
            module = layers.Flatten()
        elif isinstance(s, spec.Upsample):
            module = layers.Upsample(scale=s.scale)
        elif isinstance(s, spec.Activation):
            module = _activation_module(s.kind)
        elif isinstance(s, spec.Softmax):
            module = layers.Softmax()
        elif isinstance(s, (spec.Input, spec.Concat, spec.Add)):
            module = None  # structural; handled inline
        else:
            raise TypeError(f"cannot lower spec {type(s).__name__}")
        return _Node(node, module, activation)

    # -- parameters ----------------------------------------------------------

    def parameters(self) -> Iterator[Parameter]:
        for node in self._nodes:
            for owner in (node.module, node.activation):
                if owner is not None:
                    yield from owner.parameters()
        for bn in self._bn.values():
            yield from bn.parameters()

    def train(self, mode: bool = True) -> "GraphNetwork":
        super().train(mode)
        for node in self._nodes:
            for owner in (node.module, node.activation):
                if owner is not None:
                    owner.train(mode)
        for bn in self._bn.values():
            bn.train(mode)
        return self

    # -- execution ------------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the network on a batch ``(N, C, H, W)``.

        Training mode retains every node's activation (backward needs
        them).  Eval mode runs the liveness-driven memory planner
        instead: each activation is dropped at its last use and
        exclusively-owned buffers are recycled through the arena, so
        peak memory tracks the widest graph cut rather than the whole
        network.
        """
        if x.ndim != 4:
            raise ValueError(f"expected NCHW input, got shape {x.shape}")
        expected = self.spec.input_shape
        if x.shape[1:] != (expected.channels, expected.height, expected.width):
            raise ValueError(
                f"input shape {x.shape[1:]} does not match network input "
                f"{expected}")
        training = self.training
        arena = None if training else self._arena
        values: Dict[str, np.ndarray] = {}
        release_arena = arena
        with obs.span("nn.forward", network=self.spec.name,
                      batch=int(x.shape[0]), training=training):
            for i, node in enumerate(self._nodes):
                with obs.span("nn.node", node=node.name):
                    if isinstance(node.spec, spec.Input):
                        values[node.name] = x
                    elif isinstance(node.spec, spec.Concat):
                        values[node.name] = concat_channels(
                            [values[n] for n in node.inputs], arena)
                    elif isinstance(node.spec, spec.Add):
                        values[node.name] = add_tensors(
                            [values[n] for n in node.inputs], arena)
                    else:
                        out = node.module(values[node.inputs[0]])
                        if node.name in self._bn:
                            out = self._bn[node.name](out)
                        if node.activation is not None:
                            out = node.activation(out)
                        values[node.name] = out
                    if not training:
                        release_dead(values, self._release_after[i],
                                     release_arena)
        if training:
            self._activations = values
        elif self._activations:
            # Free retained training activations, but never clobber a
            # concurrent thread's state: eval forwards only ever write
            # the (idempotent) empty dict.
            self._activations = {}
        return values[self._nodes[-1].name]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backpropagate through the DAG; returns the input gradient."""
        if not self._activations:
            raise RuntimeError("backward called before forward")
        grads: Dict[str, np.ndarray] = {self._nodes[-1].name: grad_out}

        def accumulate(name: str, grad: np.ndarray) -> None:
            if name in grads:
                grads[name] = grads[name] + grad
            else:
                grads[name] = grad

        input_grad: Optional[np.ndarray] = None
        for node in reversed(self._nodes):
            grad = grads.get(node.name)
            if grad is None:
                continue  # dead branch (no consumer contributed gradient)
            if isinstance(node.spec, spec.Input):
                input_grad = grad
            elif isinstance(node.spec, spec.Concat):
                offset = 0
                for n in node.inputs:
                    width = self._activations[n].shape[1]
                    accumulate(n, grad[:, offset:offset + width])
                    offset += width
            elif isinstance(node.spec, spec.Add):
                for n in node.inputs:
                    accumulate(n, grad)
            else:
                if node.activation is not None:
                    grad = node.activation.backward(grad)
                if node.name in self._bn:
                    grad = self._bn[node.name].backward(grad)
                accumulate(node.inputs[0], node.module.backward(grad))
        if input_grad is None:
            raise RuntimeError("gradient never reached the input node")
        return input_grad

    @property
    def _arena(self) -> BufferArena:
        """The calling thread's eval-forward arena replica."""
        return self._arenas.get()

    def arena_stats(self) -> Dict[str, int]:
        """Aggregated hit/miss/release counters across every thread's
        arena replica (see :class:`~repro.nn.infer.ArenaRegistry`)."""
        return self._arenas.stats()

    def inference_plan(self, arena: Optional[BufferArena] = None):
        """Compile the fused eval execution plan for this network.

        Folds conv+BatchNorm+ReLU chains into single kernels and runs
        them through the arena-backed memory planner (see
        :mod:`repro.nn.infer`).  The plan snapshots current parameter
        values — rebuild it after any weight mutation (training,
        quantization, ``load_state_dict``).  The returned plan is
        single-threaded (it inherits the calling thread's arena);
        concurrent executors take :meth:`InferencePlan.clone` replicas.
        """
        from repro.nn.infer import build_inference_plan
        return build_inference_plan(self, arena=arena or self._arena)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class predictions (argmax over the final output)."""
        out = self.forward(x)
        return np.argmax(out, axis=-1)
