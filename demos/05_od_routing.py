"""
What do virtual terminals buy on origin-destination trips?
==========================================================

A two-corridor network: four short lines cover a direct east-west corridor
but never share a stop, so without clusters every cross-corridor trip has
to ride a long southern detour line. Clustering the 300 m bridge gaps
links the corridor end to end. Trips are evaluated with Yen's K-shortest
paths on both graph variants.
"""

from bustrace.clustering import cluster_stops
from bustrace.routing import add_cluster_transfers, build_graph, evaluate_od, summarize
from bustrace.synthetic import two_corridor_network, two_corridor_od_pairs

stops, itineraries, bridge_candidates = two_corridor_network()
print(f"network: {len(stops)} stops, {len(itineraries)} directed itineraries")

g_base = build_graph(itineraries, stops)
clusters = cluster_stops(bridge_candidates, stops)
print("clusters (virtual terminals):")
for cluster in clusters:
    print(f"  {cluster.cluster_id}: {cluster.member_list}")
g_clustered = add_cluster_transfers(g_base, clusters)

pairs = two_corridor_od_pairs(40, seed=13)
trips = evaluate_od(pairs, g_base, g_clustered, k=30)
summaries = {network: summarize(ranked) for network, ranked in trips.items()}

print(f"\n{'network':>10s} {'feasible':>9s} {'mean km':>8s} {'median km':>10s} {'transfers':>10s}")
for network in ("base", "clustered"):
    s = summaries[network]
    print(
        f"{network:>10s} {s.feasible:>9d} {s.mean_distance_m / 1000:8.2f} "
        f"{s.median_distance_m / 1000:10.2f} {s.mean_transfers:10.2f}"
    )

base = summaries["base"]
clustered = summaries["clustered"]
cut = 100.0 * (1.0 - clustered.mean_distance_m / base.mean_distance_m)
print(f"\nmean trip distance drops {cut:.0f}% at the cost of "
      f"{clustered.mean_transfers - base.mean_transfers:.1f} extra transfers on average")
