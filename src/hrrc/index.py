"""A compiled view of one instance: the lookup tables every layer shares.

An :class:`InstanceIndex` is built once per public call, in time linear in
the instance's size, and handed down explicitly to the functions that call
needs.  Nothing is cached between calls.

The view stands for a *valid* instance.  :func:`index_for` validates before
building; the ``InstanceIndex`` constructor trusts its caller, for instances
that :func:`hrrc.model.load_instance` or :func:`hrrc.model.require_valid`
already accepted.  A function that receives an index skips validation.
"""

from __future__ import annotations

from copy import copy
from dataclasses import replace

from .model import Instance, require_valid


class InstanceIndex:
    """Declaration positions, rank tables, capacities, and region membership.

    ``rrank[r][h]`` / ``hrank[h][r]`` is the position of ``h`` on ``r``'s list
    (of ``r`` on ``h``'s).  ``regions_of[h]`` lists, in declaration order, the
    indices into ``instance.regions`` of the regions containing ``h``;
    ``region_caps[k]`` is region ``k``'s cap.  Treat the tables as read-only:
    views made by :meth:`with_capacities` share them.
    """

    __slots__ = (
        "instance",
        "resident_pos",
        "hospital_pos",
        "rrank",
        "hrank",
        "capacities",
        "regions_of",
        "region_caps",
    )

    def __init__(self, instance: Instance):
        self.instance = instance
        self.resident_pos = {r: i for i, r in enumerate(instance.residents)}
        self.hospital_pos = {h: i for i, h in enumerate(instance.hospitals)}
        self.rrank = {
            r: {h: i for i, h in enumerate(prefs)} for r, prefs in instance.resident_prefs.items()
        }
        self.hrank = {
            h: {r: i for i, r in enumerate(prefs)} for h, prefs in instance.hospital_prefs.items()
        }
        self.capacities = instance.capacities
        regions_of: dict[str, list[int]] = {h: [] for h in instance.hospitals}
        for k, reg in enumerate(instance.regions):
            for h in reg.hospitals:
                regions_of.setdefault(h, []).append(k)
        self.regions_of = {h: tuple(ks) for h, ks in regions_of.items()}
        self.region_caps = tuple(reg.cap for reg in instance.regions)

    def with_capacities(self, capacities: dict[str, int]) -> "InstanceIndex":
        """The view of the same instance with other hospital capacities.

        Shares every table but the capacities; its ``instance`` is the
        correspondingly replaced instance.  Capacities must be non-negative.
        """
        view = copy(self)
        view.instance = replace(self.instance, capacities=capacities)
        view.capacities = capacities
        return view


def index_for(
    instance: Instance, index: InstanceIndex | None = None, *, validate: bool = True
) -> InstanceIndex:
    """``index`` after checking it was built from ``instance``, else a new one.

    A new index is built after validating ``instance`` unless ``validate`` is
    false.
    """
    if index is None:
        if validate:
            require_valid(instance)
        return InstanceIndex(instance)
    if index.instance is not instance:
        raise ValueError("the index was built from a different instance")
    return index
