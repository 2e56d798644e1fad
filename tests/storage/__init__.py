"""Durable storage layer: the WAL and the per-component store over it."""
