"""networkx views of topologies, for cross-checking the routing code.

networkx is a test-only dependency: the package itself never imports it.
"""

import networkx as nx


def to_networkx(topo):
    """An :class:`networkx.Graph` with the nodes and links of *topo*."""
    graph = nx.Graph()
    graph.add_nodes_from(topo.nodes())
    for u, v in topo.links():
        graph.add_edge(u, v, weight=topo.weight(u, v))
    return graph
