"""Ablation — signature verify (GlobeDoc) vs RSA decrypt (SSL).

§4: "GlobeDoc requires only public key signature verification operations
which are much faster than the public key encrypt/decrypt operations
required by SSL." Measured on real RSA-2048.
"""

from __future__ import annotations

from repro.harness.design_choices import measure_crypto_ops
from repro.harness.report import render_table


def test_crypto_op_costs(benchmark):
    costs = benchmark.pedantic(
        lambda: measure_crypto_ops(iterations=30), rounds=1, iterations=1
    )
    print()
    print("Ablation — RSA operation costs (per op)")
    print(
        render_table(
            ["Operation", "Mean time", "Used by"],
            [
                ["verify", f"{costs.verify*1e6:.1f} us", "GlobeDoc proxy (per binding)"],
                ["sign", f"{costs.sign*1e6:.1f} us", "owner (offline, per publish)"],
                ["encrypt", f"{costs.rsa_encrypt*1e6:.1f} us", "SSL client (per connection)"],
                ["decrypt", f"{costs.rsa_decrypt*1e6:.1f} us", "SSL server (per connection)"],
            ],
        )
    )
    print(f"decrypt/verify ratio: {costs.decrypt_over_verify:.1f}x")
    assert costs.decrypt_over_verify > 3
