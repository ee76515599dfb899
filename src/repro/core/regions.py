"""Structure-of-arrays region storage plus the filter and split kernels.

PAGANI keeps every live sub-region in flat device arrays — there is no tree
data structure and no per-processor heap.  A region is a row across parallel
arrays:

``centers``/``halfwidths``  geometry (user coordinates),
``estimate``/``error``      current cubature estimates,
``split_axis``              axis chosen by the fourth-difference scan,
``parent_estimate``         the parent's integral estimate (two-level error).

The two structural kernels of Algorithm 2 are implemented here:

* :meth:`RegionStore.filter` — stream compaction of the active regions
  (exclusive-scan index computation + gather), removing finished regions
  from memory permanently;
* :meth:`RegionStore.split` — every surviving region splits into two halves
  along its chosen axis, doubling the list (line 22/23).

Storage strategy (preallocated SoA growth)
------------------------------------------
The store owns *reserved* column buffers that grow geometrically (capacity
doubling) and never shrink during a run.  ``filter`` and ``split`` write
into the reserved arrays of a ping-pong buffer pair instead of allocating
fresh full-size arrays every iteration, so steady-state iterations of the
breadth-first loop perform no new full-size allocations.  The compaction
gather and the pairwise child writes are value-for-value identical to the
previous allocate-per-iteration kernels, which is what keeps the bit-exact
volume-conservation and golden suites unchanged.

Device-memory accounting charges the **reserved capacity** (the high-water
region count), not the live size — exactly what a preallocated device
buffer pins on real hardware.  The staging half of the ping-pong pair is
structural-kernel workspace and is not charged, matching how the evaluate
sweep's point buffers and the thrust scan temporaries are treated.  Both
charging and the memory-exhaustion trigger (:meth:`split_would_fit`) are
therefore phrased in terms of capacity *growth*, which is how the
§3.5.2 memory trigger becomes observable.

The parallel arrays are owned by a pluggable
:class:`~repro.backends.base.ArrayBackend` (NumPy by default): the store's
arrays are whatever array type the backend produces, and the structural
kernels create/compact them through the backend's namespace and
primitives.  The cost accounting is backend-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.backends import BackendLike, NumpyBackend, get_backend
from repro.backends.base import ArrayBackend
from repro.errors import ConfigurationError, DeviceMemoryError
from repro.gpu import thrust
from repro.gpu.device import VirtualDevice

_F8 = 8


def bytes_per_region(ndim: int) -> int:
    """Device bytes one region occupies across all parallel arrays.

    2n geometry doubles + estimate, error, parent estimate, split axis and
    active flag (flags/axes stored as 64-bit on device for coalescing).
    """
    return (2 * ndim + 5) * _F8


@dataclass
class RegionStore:
    """Flat storage for the live region list."""

    ndim: int
    centers: np.ndarray  # (m, n)
    halfwidths: np.ndarray  # (m, n)
    estimate: np.ndarray  # (m,)
    error: np.ndarray  # (m,)
    split_axis: np.ndarray  # (m,) int64
    parent_estimate: Optional[np.ndarray]  # (m,) or None on iteration 0
    device: Optional[VirtualDevice] = None
    #: execution backend owning the arrays (NumPy when not specified)
    backend: ArrayBackend = field(default_factory=NumpyBackend)
    _mem_handle: Optional[int] = None
    #: reserved rows in the preallocated SoA buffers (0 = not yet reserved)
    _capacity: int = field(default=0, repr=False)
    _front: Optional[Dict[str, np.ndarray]] = field(default=None, repr=False)
    _back: Optional[Dict[str, np.ndarray]] = field(default=None, repr=False)
    _iota: Optional[np.ndarray] = field(default=None, repr=False)

    #: column name -> (has an ndim axis, dtype)
    _COLUMNS = (
        ("centers", True, np.float64),
        ("halfwidths", True, np.float64),
        ("estimate", False, np.float64),
        ("error", False, np.float64),
        ("split_axis", False, np.int64),
        ("parent_estimate", False, np.float64),
    )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def uniform_split(
        cls,
        bounds: np.ndarray,
        splits_per_axis: int,
        device: Optional[VirtualDevice] = None,
        backend: BackendLike = None,
    ) -> "RegionStore":
        """Partition the integration box into ``d^n`` equal sub-regions.

        This is Algorithm 2 line 4 (``Uniform-Split``): the pre-processing
        step that seeds the breadth-first expansion with enough parallelism
        to fill the device from the first iteration.  The grid is built
        on the host and uploaded once through ``backend.asarray`` — the
        breadth-first loop never moves region arrays off the backend again.
        """
        bk = get_backend(backend)
        xp = bk.xp
        bounds = np.asarray(bounds, dtype=np.float64)
        if bounds.ndim != 2 or bounds.shape[1] != 2:
            raise ConfigurationError("bounds must have shape (ndim, 2)")
        ndim = bounds.shape[0]
        d = int(splits_per_axis)
        if d < 1:
            raise ConfigurationError("splits_per_axis must be >= 1")
        lo = bounds[:, 0]
        hi = bounds[:, 1]
        if np.any(hi <= lo):
            raise ConfigurationError("each bound must satisfy high > low")
        width = (hi - lo) / d
        m = d**ndim
        # Cartesian grid of cell indices, one row per region.
        grids = np.meshgrid(*[np.arange(d)] * ndim, indexing="ij")
        idx = np.stack([g.ravel() for g in grids], axis=1)  # (m, n)
        centers = lo[None, :] + (idx + 0.5) * width[None, :]
        halfwidths = np.broadcast_to(width / 2.0, (m, ndim)).copy()
        store = cls(
            ndim=ndim,
            centers=bk.asarray(np.ascontiguousarray(centers)),
            halfwidths=bk.asarray(halfwidths),
            estimate=xp.zeros(m),
            error=xp.zeros(m),
            split_axis=xp.zeros(m, dtype=np.int64),
            parent_estimate=None,
            device=device,
            backend=bk,
        )
        store._account_memory()
        if device is not None:
            device.charge_kernel(
                "uniform_split", work_items=m, bytes_per_item=2 * ndim * _F8
            )
        return store

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self.centers.shape[0]

    @property
    def reserved(self) -> int:
        """Rows of preallocated SoA capacity backing the store."""
        return self._capacity if self._capacity else self.size

    @property
    def nbytes_device(self) -> int:
        return self.reserved * bytes_per_region(self.ndim)

    def _account_memory(self) -> None:
        if self.device is None:
            return
        pool = self.device.memory
        if self._mem_handle is None:
            self._mem_handle = pool.alloc(self.nbytes_device)
        else:
            pool.resize(self._mem_handle, self.nbytes_device)

    def release(self) -> None:
        """Free the store's device allocation (end of an integration)."""
        if self.device is not None and self._mem_handle is not None:
            self.device.memory.free(self._mem_handle)
            self._mem_handle = None

    def split_would_fit(self, n_active: int) -> bool:
        """Whether filtering to ``n_active`` regions and splitting them
        fits in device memory.

        Under the preallocated SoA scheme the cost of a split is the
        *capacity growth* it forces: the reserved buffers must cover the
        ``2 * n_active`` children, growing by capacity doubling from the
        current reservation.  A split whose children fit inside the
        existing reservation is free.
        """
        if self.device is None:
            return True
        new_cap = self._target_capacity(2 * n_active)
        already = self.nbytes_device if self._mem_handle is not None else 0
        extra = new_cap * bytes_per_region(self.ndim) - already
        return extra <= self.device.memory.available

    # ------------------------------------------------------------------
    # Reserved-capacity buffer management
    # ------------------------------------------------------------------
    def _target_capacity(self, nrows: int) -> int:
        """Reserved rows after growing (by doubling) to hold ``nrows``."""
        cap = self._capacity if self._capacity else max(self.size, 1)
        while cap < nrows:
            cap *= 2
        return cap

    def _alloc_columns(self, cap: int) -> Dict[str, np.ndarray]:
        xp = self.backend.xp
        n = self.ndim
        return {
            name: xp.empty((cap, n) if is2d else cap, dtype=dtype)
            for name, is2d, dtype in self._COLUMNS
        }

    def _reserve(self, nrows: int) -> None:
        """Ensure the SoA buffers hold ``>= nrows`` rows.

        Growth is geometric (capacity doubling), copies the live rows into
        the new reservation, and re-points the public column views.  The
        device charge moves with the reservation, so accounting always
        reflects reserved capacity.
        """
        if self._front is not None and nrows <= self._capacity:
            return
        cap = self._target_capacity(nrows)
        front = self._alloc_columns(cap)
        back = self._alloc_columns(cap)
        m = self.size
        for name, _, _ in self._COLUMNS:
            live = getattr(self, name)
            if live is None:
                continue
            front[name][:m] = live
            setattr(self, name, front[name][:m])
        self._front = front
        self._back = back
        self._iota = self.backend.xp.arange(cap)
        self._capacity = cap
        self._account_memory()

    def _publish(self, nrows: int, with_parent: bool) -> None:
        """Swap the ping-pong pair; expose ``[:nrows]`` views as live."""
        self._front, self._back = self._back, self._front
        f = self._front
        self.centers = f["centers"][:nrows]
        self.halfwidths = f["halfwidths"][:nrows]
        self.estimate = f["estimate"][:nrows]
        self.error = f["error"][:nrows]
        self.split_axis = f["split_axis"][:nrows]
        self.parent_estimate = (
            f["parent_estimate"][:nrows] if with_parent else None
        )

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def filter(self, active: np.ndarray) -> int:
        """Remove finished regions from memory (Algorithm 2 line 20).

        Uses the exclusive-scan + gather compaction idiom of the CUDA
        implementation; returns the surviving count.  The gather writes
        the survivors into the reserved staging buffers (no fresh array
        allocation).  The removed regions' contributions must already have
        been accumulated into the finished totals by the caller — after
        this call they are unrecoverable, exactly as in the paper ("any
        regions that PAGANI filters out are permanently removed").
        """
        bk = self.backend
        xp = bk.xp
        active = bk.asarray(active).astype(bool)
        if active.shape[0] != self.size:
            raise ValueError("flag length mismatch")
        self._reserve(self.size)
        # Index computation is an exclusive scan on device; the gather
        # compacts the survivors into the reserved staging buffers.
        thrust.exclusive_scan(
            self.device, active.astype(np.int64), backend=bk
        )
        idx = xp.flatnonzero(active)
        k = int(idx.shape[0])
        has_parent = self.parent_estimate is not None
        back = self._back
        for name, _, _ in self._COLUMNS:
            src = getattr(self, name)
            if src is None:
                continue
            xp.take(src, idx, axis=0, out=back[name][:k])
        if self.device is not None:
            self.device.charge_kernel(
                "filter",
                work_items=int(active.shape[0]),
                bytes_per_item=float(bytes_per_region(self.ndim)),
            )
        self._publish(k, with_parent=has_parent)
        self._account_memory()
        return self.size

    def split(self) -> None:
        """Split every region in two along its chosen axis (line 22).

        Children are stored pairwise (2k, 2k+1 from parent k) and inherit
        the parent's integral estimate for the next two-level refinement.
        The children are written into the reserved staging buffers, which
        then become the live columns — growth only reallocates when the
        doubled list exceeds the current reservation.

        Raises
        ------
        DeviceMemoryError
            If the capacity growth forced by the doubled list does not fit
            on the device.  PAGANI's main loop prevents this by triggering
            threshold classification beforehand; the raise covers callers
            that skip that safeguard (the "no filtering" ablation of
            Fig. 8).
        """
        m = self.size
        n = self.ndim
        xp = self.backend.xp
        bpr = bytes_per_region(n)
        if self.device is not None:
            new_cap = self._target_capacity(2 * m)
            already = self.nbytes_device if self._mem_handle is not None else 0
            extra = new_cap * bpr - already
            if extra > 0 and not self.device.memory.can_fit(extra):
                raise DeviceMemoryError(
                    requested=extra, available=self.device.memory.available
                )
        self._reserve(2 * m)
        back = self._back
        axes = self.split_axis
        rows = self._iota[:m]

        half = back["halfwidths"]
        left_h = half[0 : 2 * m : 2]
        right_h = half[1 : 2 * m : 2]
        left_h[:] = self.halfwidths
        left_h[rows, axes] *= 0.5
        right_h[:] = left_h
        delta = left_h[rows, axes]

        cen = back["centers"]
        left_c = cen[0 : 2 * m : 2]
        right_c = cen[1 : 2 * m : 2]
        left_c[:] = self.centers
        right_c[:] = self.centers
        left_c[rows, axes] -= delta
        right_c[rows, axes] += delta

        pe = back["parent_estimate"]
        pe[0 : 2 * m : 2] = self.estimate
        pe[1 : 2 * m : 2] = self.estimate

        back["estimate"][: 2 * m] = 0.0
        back["error"][: 2 * m] = 0.0
        back["split_axis"][: 2 * m] = 0

        if self.device is not None:
            self.device.charge_kernel(
                "split",
                work_items=2 * m,
                bytes_per_item=float(bpr),
            )
        self._publish(2 * m, with_parent=True)
        self._account_memory()

    def volumes(self) -> np.ndarray:
        """Region volumes (testing/diagnostics)."""
        return np.prod(2.0 * self.halfwidths, axis=1)
