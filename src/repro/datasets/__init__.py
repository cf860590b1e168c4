"""Dataset builders.

* :mod:`~repro.datasets.essembly` — the paper's running example (Fig. 1):
  the Essembly "cloning debate" graph together with queries ``Q1`` and ``Q2``;
* :mod:`~repro.datasets.youtube` — a synthetic stand-in for the crawled
  YouTube video graph used in the experiments (same schema, colours and
  default size);
* :mod:`~repro.datasets.terrorism` — a synthetic stand-in for the Global
  Terrorism Database collaboration network;
* :mod:`~repro.datasets.synthetic` — the paper's 4-parameter synthetic graph
  generator, plus :func:`~repro.datasets.synthetic.scale_free_stream` for
  streaming 10^6–10^7-edge graphs into the partitioned store;
* :mod:`~repro.datasets.ingest` — chunked streaming ingest of edge-list /
  CSV files into a :class:`~repro.storage.partition.PartitionedStore`.

The two real-life datasets of the paper are not redistributable offline, so
the stand-ins reproduce their schema, edge-colour alphabet, size and skewed
degree distribution (see DESIGN.md, "Substitution note").
"""

from repro.lazy import lazy_exports

#: Exported name -> defining module, imported on first access.
_EXPORTS = {
    **dict.fromkeys(
        ("build_essembly_graph", "essembly_query_q1", "essembly_query_q2"), "repro.datasets.essembly"
    ),
    "generate_youtube_graph": "repro.datasets.youtube",
    "generate_terrorism_graph": "repro.datasets.terrorism",
    **dict.fromkeys(("generate_synthetic_graph", "scale_free_stream"), "repro.datasets.synthetic"),
}

__all__ = [*_EXPORTS]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
