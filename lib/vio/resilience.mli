(** The client-side resilience policy (pure part): what is retryable,
    how long to back off, when to give up. The retry loop itself lives
    in [Vruntime.Runtime], which owns the simulation handles; jitter is
    drawn from a caller-supplied PRNG so seeded runs replay the exact
    backoff schedule. *)

type policy = {
  max_retries : int;  (** re-issues after the first attempt *)
  base_backoff_ms : float;
  max_backoff_ms : float;
  deadline_ms : float;  (** per-operation budget across all attempts *)
}

(** 4 retries, 25ms..2s backoff, 10s deadline. *)
val default : policy

(** Transient failures worth re-issuing: [Ipc Timeout],
    [Ipc Nonexistent_process] (stale pid — re-resolution may find a
    successor), [Ipc No_reply], [Denied Retry], [Denied No_server]
    (the implementer is down or its GetPid reply was lost), and [Busy]
    (the server shed under overload and will recover). Other denials,
    protocol errors and [Unavailable] are permanent. *)
val retryable : Verr.t -> bool

(** Transport-level failures whose retry should first re-resolve its
    route (the server may be gone); server denials are not, and neither
    is [Busy] — the server is alive and said when to come back. *)
val rebind_worthy : Verr.t -> bool

(** [backoff_ms p prng ~attempt] for 1-based failure count [attempt]:
    exponential with equal jitter, capped at [max_backoff_ms]. *)
val backoff_ms : policy -> Vsim.Prng.t -> attempt:int -> float

type verdict = Retry_after of float | Give_up

(** The least deadline budget a retry must have left {e after} its
    backoff to be worth firing:
    [max 1.0 (min base_backoff_ms (deadline_ms / 100))]. *)
val min_residual_ms : policy -> float

(** Decide what follows the [attempt]-th failure, [elapsed_ms] into the
    operation: a jittered backoff that still fits the deadline (with
    {!min_residual_ms} budget to spare), or give up. A {!Verr.Busy}
    failure carrying a positive retry-after hint waits the hint instead
    of the computed backoff — jittered up to +50%, not clamped by
    [max_backoff_ms], still deadline-checked. *)
val next_step :
  policy -> Vsim.Prng.t -> attempt:int -> elapsed_ms:float -> Verr.t -> verdict

(** The terminal error after [attempts] tries: retryable failures become
    {!Verr.Unavailable} (bounded, never a hang); permanent ones pass
    through. *)
val give_up : attempts:int -> Verr.t -> Verr.t
