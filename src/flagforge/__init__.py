"""flagforge: a self-contained hosting plane for replicated TCP services.

The package is organized around six cooperating parts:

- ``model``      declarative topology document, diff, and idempotent converge
- ``registry``   runtime record of each service's replica endpoints
- ``supervisor`` keeps services at their desired replica count, probes health,
  and performs one-at-a-time rolling updates
- ``balancer``   per-backend L4 reverse proxy with source-IP session affinity
- ``ingress``    frontend entry point mapping external ports to backend
  balancer listeners
- ``pipeline``   artifact store scanning, bundle packaging, and deployment

``state`` owns the state directory, ``backend`` runs one backend node,
``runtime`` converges the nodes a process hosts, loading each role's code only
where it is hosted, and ``cli`` exposes the operator commands.
"""

__version__ = "0.1.0"
