"""Compiled packet fast path: bind C entry points onto live objects.

The C extension exposes ``pp_bind(kind, owner, sim, extras)`` which
creates a ``PyCFunction`` closed over the owning object and the
:class:`FastCore` simulator and stores it in the owner's instance
``__dict__``. ``PyCFunction`` objects have no ``__get__``, so instance
lookup returns them as-is, shadowing the class method exactly; deleting
the instance attribute makes the Python method visible again. All
mutable state stays in the Python objects, so C and Python execution
can interleave freely and remain bit-identical.

The engine classes (``Process``/``CpuTask``, ``CPU``, ``InterruptLine``,
``NIC`` and the queues) keep that state in ``__slots__``, which the C
bodies read and write at fixed offsets; their instance ``__dict__``
holds only the entry points bound here. Every task also gets a
compiled ``deliver``, whose context holds the task; the C port of
``Process._finish`` drops it once the task has finished, so a finished
IRQ handler task is freed by refcounting, not left as a reference
cycle for the collector (DESIGN.md §13).

Kernel threads are bound the same way, one step earlier: ``install``
shadows each thread owner's body factory (``polling._body``,
``driver._napi_body``, ``driver._poll_body``, ``ip_input._netisr_body``,
``kernel._idle_body``), so the task ``Router.start`` spawns runs a
compiled state machine from its first resume (DESIGN.md §13).

Every core is bound the same way: each CPU in ``kernel.cpus``, each
controller in ``kernel.controllers`` and each line in
``kernel.irq_lines()`` gets its own entry points, and a C body finds its
core through ``task.cpu`` or ``line.controller.cpu`` — never a global.
A single-core machine is simply the one-element case (DESIGN.md §14).

Escape seams (DESIGN.md §13): the fast path is only installed on the
``fast-c`` backend, and only a passive monitor tears it back out (by
:func:`uninstall`). Observers stay compiled: a C body reads ``trace``
where its Python twin does and calls the armed buffer's own record
path, so traced trials emit the pure backend's record stream; an armed
fault injector makes each consulting body hand that one call to its
Python method. The sanitizer forces the pure backend one layer up and
never sees any of this.

Everything here degrades to a no-op when the C extension is absent or
the simulator is not the compiled flavour.
"""

from __future__ import annotations

try:  # pragma: no cover - exercised only when the extension is built
    from . import _corec as _c
except ImportError:  # pragma: no cover
    _c = None

_PP_STATE = "_pp_state"


def _fastcore_type():
    if _c is None or not hasattr(_c, "pp_bind"):
        return None
    return getattr(_c, "FastCore", None)


def available(sim) -> bool:
    """True when the compiled packet path can bind to ``sim``."""
    fc = _fastcore_type()
    return fc is not None and type(sim) is fc


#: Bind kinds whose instance-attribute name differs from the kind suffix.
_ATTR_OVERRIDES = {
    "driver.output_kick_irq": "output",
    "driver.output_kick_poll": "output",
    "driver.output_plain": "output",
    "gen.tick_constant": "_tick",
    "gen.tick_poisson": "_tick",
    "gen.tick_bursty": "_tick",
    "gen.gap_over": "_gap_over",
}

#: The NIC methods ported to C, bound per interface.
_NIC_KINDS = (
    "nic.receive_from_wire",
    "nic.rx_pull",
    "nic.rx_pull_many",
    "nic.rx_pending",
    "nic.tx_done_slots",
    "nic.tx_enqueue",
    "nic.tx_reclaim",
    "nic._transmit_complete",
)


def _bind(state, kind, owner, sim, extras=None):
    _c.pp_bind(kind, owner, sim, extras)
    attr = _ATTR_OVERRIDES.get(kind) or kind.rsplit(".", 1)[1]
    state["bound"].append((owner, attr))


def install(router) -> bool:
    """Bind the compiled CPU engine on every core, and the compiled
    kernel-thread bodies, at the end of ``Router.__init__``.

    No task exists yet: every task (idle loops, kernel threads, driver
    IRQ handlers, softnet/netisr, apps) is spawned in ``Router.start``
    through the wrapped ``cpu.task`` of its core and gets a compiled
    ``deliver`` there. Each kernel thread's owner has its body factory
    shadowed here, so the thread runs a C state machine from spawn.
    """
    sim = router.sim
    if not available(sim):
        return False
    state = {"bound": [], "restore": [], "dict_restore": []}
    try:
        for cpu in router.kernel.cpus:
            # Capture the original bound method before shadowing it.
            _bind(state, "cpu.task", cpu, sim, (cpu.task,))
            _bind(state, "cpu.requeue_behind", cpu, sim)
            _bind(state, "cpu._complete", cpu, sim)
        for owner, kind in _thread_bodies(router):
            _bind(state, kind, owner, sim)
    except Exception:
        router.__dict__[_PP_STATE] = state
        uninstall(router)
        raise
    router.__dict__[_PP_STATE] = state
    return True


def _thread_bodies(router):
    """``(owner, kind)`` for every kernel-thread body ported to C.

    Exact-type gates: a subclass may override what the C body replays.
    """
    from ..core.cyclelimit import CycleLimiter
    from ..core.polling import PollingSystem
    from ..drivers.bsd import ClassicIPInput
    from ..drivers.clocked import ClockedPollingDriver
    from ..drivers.hybrid import HybridDriver
    from ..drivers.polled import PolledDriver
    from ..kernel.kernel import Kernel

    if type(router.kernel) is Kernel:
        yield router.kernel, "kernel._idle_body"
    for system in router.polling_systems:
        if (
            type(system) is PollingSystem
            and type(system.cycle_limiter) in (type(None), CycleLimiter)
            and all(type(d) is PolledDriver for d in system.devices)
        ):
            yield system, "polling._body"
    for drv in (router.driver_in, router.driver_out):
        if type(drv) is HybridDriver:
            yield drv, "hybrid._napi_body"
        elif type(drv) is ClockedPollingDriver:
            yield drv, "clocked._poll_body"
    if type(router.ip_input) is ClassicIPInput:
        yield router.ip_input, "ipinput._netisr_body"


def install_started(router) -> bool:
    """Bind the per-packet pipeline at the end of ``Router.start``.

    Whatever faults are armed; declines only when :func:`install` did not
    run or a monitor already uninstalled the engine bindings.
    """
    state = router.__dict__.get(_PP_STATE)
    if state is None:
        return False
    sim = router.sim
    if not available(sim):
        return False
    from ..drivers.bsd import BsdDriver, ClassicIPInput
    from ..drivers.clocked import ClockedPollingDriver
    from ..drivers.highipl import HighIplDriver
    from ..drivers.hybrid import HybridDriver
    from ..drivers.polled import PolledDriver
    from ..kernel.queues import PacketQueue

    def bind_queue(q):
        # Exact-type gate: a subclass (RED among them) keeps its Python
        # bodies.
        if type(q) is PacketQueue:
            _bind(state, "queue.enqueue", q, sim)
            _bind(state, "queue.dequeue", q, sim)

    try:
        for nic in (router.nic_in, router.nic_out):
            for kind in _NIC_KINDS:
                _bind(state, kind, nic, sim)
        for drv in (router.driver_in, router.driver_out):
            bind_queue(drv.ifqueue)
            t = type(drv)
            if t is BsdDriver or t is HighIplDriver:
                okind = "driver.output_kick_irq"
            elif t is PolledDriver:
                okind = "driver.output_kick_poll"
            elif t is ClockedPollingDriver:
                okind = "driver.output_plain"
            else:
                okind = None
            if okind is not None:
                _bind(state, okind, drv, sim)
                # ip.outputs captured the Python bound method back in
                # Router.__init__; repoint it at the compiled entry and
                # remember the original for uninstall.
                outputs = router.ip.outputs
                if drv.name in outputs:
                    state["dict_restore"].append(
                        (outputs, drv.name, outputs[drv.name])
                    )
                    outputs[drv.name] = drv.output
        if router.ip_input is not None:
            bind_queue(router.ip_input.ipintrq)
            _bind(state, "ipinput.enqueue", router.ip_input, sim)
        if router.screen_queue is not None:
            bind_queue(router.screen_queue)
        _bind(state, "ip._dispatch", router.ip, sim)
        # Interrupt lines exist only after the drivers attached in
        # Router.start — which is why this runs at the end of start().
        # Device lines sit on their steered core's controller.
        for line in router.kernel.irq_lines():
            _bind(state, "line.request", line, sim)
        # Compiled IRQ dispatch: protos let try_deliver build the
        # handler task on the line's core and run its body as a C state
        # machine. A line without a proto (a subclassed driver's) falls
        # back to the Python try_deliver from inside the C binding.
        for ctrl in router.kernel.controllers:
            _bind(state, "ctrl.try_deliver", ctrl, sim)
            _bind(state, "ctrl._on_ipl_change", ctrl, sim)
            # The controller registered its bound _on_ipl_change as an
            # IPL observer of its core at construction; repoint that
            # slot at the compiled entry (the restore list replays
            # ``obs[i] = original``).
            observers = ctrl.cpu.ipl_observers
            for i, cb in enumerate(observers):
                if (
                    getattr(cb, "__self__", None) is ctrl
                    and getattr(cb, "__func__", None)
                    is type(ctrl)._on_ipl_change
                ):
                    state["dict_restore"].append((observers, i, cb))
                    observers[i] = ctrl.__dict__["_on_ipl_change"]
                    break
        protos = []
        for drv in (router.driver_in, router.driver_out):
            t = type(drv)
            if t is BsdDriver:
                kinds = ("bsd_rx", "bsd_tx")
            elif t is HighIplDriver:
                kinds = ("highipl", "highipl")
            elif t is PolledDriver:
                kinds = ("polled_rx", "polled_tx")
            elif t is HybridDriver:
                kinds = ("hybrid_rx", "hybrid_tx")
            else:
                continue
            protos.append((kinds[0], drv.rx_line, drv))
            protos.append((kinds[1], drv.tx_line, drv))
        ip_input = router.ip_input
        if type(ip_input) is ClassicIPInput and ip_input._softnet_line is not None:
            protos.append(("softnet", ip_input._softnet_line, ip_input))
        for irq_kind, line, owner in protos:
            _c.pp_irq_proto(irq_kind, line, owner, sim)
            state["bound"].append((line, "_pp_irq"))
        clock_line = router.kernel.clock.line
        _c.pp_irq_proto("clock", clock_line, router.kernel, sim)
        state["bound"].append((clock_line, "_pp_irq"))
        nic = router.nic_out
        fn = _c.pp_bind("router._on_output_transmit", router, sim)
        state["restore"].append((nic, "on_transmit", nic.on_transmit))
        nic.on_transmit = fn
    except Exception:
        uninstall(router)
        raise
    return True


def bind_generator(gen) -> bool:
    """Hook for ``TrafficGenerator.start``: compiled tick bodies attach
    only when the generator feeds an installed NIC directly (no faulty
    wire in between, pooled allocation)."""
    fc = _fastcore_type()
    if fc is None or type(gen.sim) is not fc:
        return False
    if gen.wire is not None or gen.pool is None:
        return False
    nic = gen.nic
    # The compiled rx entry in the NIC's instance dict doubles as the
    # "packet pipeline is installed" marker; it is removed by uninstall.
    if nic is None or "receive_from_wire" not in nic.__dict__:
        return False
    from ..workloads.generators import (
        BurstyGenerator,
        ConstantRateGenerator,
        PoissonGenerator,
    )

    t = type(gen)
    if t is ConstantRateGenerator:
        kind = "gen.tick_constant"
    elif t is PoissonGenerator:
        kind = "gen.tick_poisson"
    elif t is BurstyGenerator:
        kind = "gen.tick_bursty"
    else:
        return False
    _c.pp_bind(kind, gen, gen.sim)
    if t is BurstyGenerator:
        _c.pp_bind("gen.gap_over", gen, gen.sim)
    return True


def uninstall(router) -> None:
    """Remove every binding; the Python class methods take over.

    Safe to call repeatedly or when :func:`install` never ran. Residual
    C entry points held by in-flight events keep running the same
    bodies, trace records included, so they stay exact.
    """
    state = router.__dict__.pop(_PP_STATE, None)
    if state is None:
        return
    for obj, attr in reversed(state["bound"]):
        try:
            delattr(obj, attr)
        except AttributeError:
            pass
    for obj, attr, value in reversed(state["restore"]):
        setattr(obj, attr, value)
    for dct, key, value in reversed(state.get("dict_restore", ())):
        dct[key] = value
