"""System/timing simulation.

The paper's latency results are driven by five delay components
(Section 4.6): local training T_local, gradient upload T_up, miner exchange
T_ex, global-update computation T_gl, and block mining/consensus T_bl.  This
package provides:

* :mod:`repro.sim.events` — the deterministic discrete-event kernel (timed
  callbacks on a simulated clock, seeded tie-breaking) that owns every
  simulated second in the repository;
* :mod:`repro.sim.rounds` — event-driven round simulation: clients, miners
  and the miners' gradient-set exchange schedule their work as kernel
  callbacks, with ``sync`` / ``semi_sync`` / ``async`` round modes;
* :mod:`repro.sim.delay` — the calibration constants and
  :class:`~repro.sim.delay.DelayModel`, which prices a FedAvg/FedProx round
  as the paper's ``T(n, m)`` breakdown in the kernel's own arithmetic;
* :mod:`repro.sim.vanilla_blockchain` — the vanilla-blockchain baseline used
  in Figures 4a, 6a, 6b and 7a: every local gradient is priced as an on-chain
  transaction queued into fixed-size blocks, and rounds only finish when all
  of them are mined.  Its cost is in the timing model, not in ledger bytes.
"""
