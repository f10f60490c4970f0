// Package netdht is the deployment path of the repository: a Chord
// overlay whose nodes are real network endpoints exchanging the
// internal/wire encodings over TCP, instead of the simulator's
// in-memory method calls. It implements the same dht.Overlay surface
// as the in-process ring flavors and passes the same dht/dhttest
// contract suite, so everything layered above — core's
// failure-aware counting, Estimate.Quality, the experiments — runs
// over it unchanged.
//
// The ring member itself is internal/chord's Node, protocol Machine
// included — the same member the simulated rings are made of; Server
// embeds one and gives it a TCP transport (tcpPeers) and RPC handlers.
// Two deployment shapes share that code:
//
//   - Cluster: N Servers inside one test process, each with its own
//     loopback listener and socket-backed peer connections. Routed
//     lookups and stabilization rounds cross real TCP; the oracle
//     surfaces the dht.Overlay contract defines as zero-cost ground
//     truth (Owner, Nodes, Predecessor) and the node-local state reads
//     (SuccessorList, liveness) resolve in-process, exactly as the
//     simulated rings resolve them against shared memory. This is the
//     harness the contract and race tests drive.
//
//   - Server + Client across OS processes (cmd/dhsnode): each process
//     hosts one Server, joins via a bootstrap address, and repairs its
//     routing state with wall-clock-timer protocol rounds; a Client
//     performs insertions and the Algorithm-1 counting scan purely over
//     RPC. Nothing is shared but the sockets.
//
// Clock domains: this package is the repository's declared wall-clock
// boundary. The simulation kernel stays deterministic — netdht never
// feeds results back into sim.Env — and the protocol cadence is still
// the shared chord.ProtocolConfig.DueAt schedule, driven here by a
// ticker instead of sim.Clock ticks (dhslint's determinism analyzer
// excludes exactly this package and cmd/dhsnode). See DESIGN.md §14
// for the transport model: framing, deadlines, the error mapping onto
// dht.ErrTimeout/ErrLost/ErrNodeDown, and what the simulator still
// guarantees that TCP does not.
package netdht
