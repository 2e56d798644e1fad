"""One process-wide count of the work a simulated host is charged for:
RSA operations by ``(operation, key bits)``, and bytes ``"hashed"``,
canonically ``"encoded"`` or through the SSL ``"record"`` layer. The
primitives only count; :meth:`repro.net.simnet.SimHost.compute` prices.
Bumps are unlocked: only the single-threaded simulation reads them."""

from collections import defaultdict

__all__ = ["TALLY"]

TALLY: "defaultdict[object, int]" = defaultdict(int)
