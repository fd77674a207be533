(* The client-side resilience policy: the pure part.

   What is retryable, how long to back off, and when to give up are
   decided here; actually sleeping and re-issuing is the runtime's job
   ([Vruntime.Runtime]), which owns the simulation handles. Keeping the
   policy pure makes it unit-testable and keeps this library free of any
   scheduling dependency.

   Jitter is deterministic: it is drawn from a caller-supplied PRNG, so
   a seeded run replays the exact same backoff schedule. *)

type policy = {
  max_retries : int;  (* re-issues after the first attempt *)
  base_backoff_ms : float;
  max_backoff_ms : float;
  deadline_ms : float;  (* per-operation budget across all attempts *)
}

let default =
  {
    max_retries = 4;
    base_backoff_ms = 25.0;
    max_backoff_ms = 2_000.0;
    deadline_ms = 10_000.0;
  }

(* A transient failure the paper's model expects recovery from: the
   transaction timed out (crash, partition, loss burst), the pid went
   stale (server restarted — re-resolution may find a successor), the
   server died before replying, it explicitly answered Retry, or no
   server answered a GetPid query (the implementer is down or its reply
   was lost — re-resolution may find a restarted successor).
   Everything else — denials, protocol errors, and [Unavailable] itself
   (retrying an exhausted retry loop would multiply budgets) — is
   permanent. *)
let retryable = function
  | Verr.Ipc Vkernel.Kernel.Timeout
  | Verr.Ipc Vkernel.Kernel.Nonexistent_process
  | Verr.Ipc Vkernel.Kernel.No_reply
  | Verr.Denied Vnaming.Reply.Retry
  | Verr.Denied Vnaming.Reply.No_server
  | Verr.Busy _ ->
      true
  | Verr.Ipc _ | Verr.Denied _ | Verr.Protocol _ | Verr.Unavailable _ -> false

(* Transport-level failures, where the retry should first re-resolve
   its route (GetPid / rebind) because the server itself may be gone —
   as opposed to server denials, which came from a live server and
   would be answered identically by any replica. Busy is emphatically
   not rebind-worthy: the server is alive and told us when to come
   back; re-resolving would stampede its replicas. *)
let rebind_worthy = function
  | Verr.Ipc _ -> true
  | Verr.Denied _ | Verr.Busy _ | Verr.Protocol _ | Verr.Unavailable _ ->
      false

(* Exponential backoff with equal jitter: attempt [n] (1-based count of
   failures so far) waits cap/2 + U[0, cap/2) where cap doubles per
   attempt from [base_backoff_ms] up to [max_backoff_ms]. The random
   draw comes from [prng], so the schedule is a pure function of the
   seed. *)
let backoff_ms policy prng ~attempt =
  let doubled = policy.base_backoff_ms *. Float.of_int (1 lsl min (attempt - 1) 20) in
  let cap = Float.min policy.max_backoff_ms doubled in
  (cap /. 2.0) +. (Vsim.Prng.float prng *. cap /. 2.0)

(* Decide what to do after a failed attempt. [elapsed_ms] is time spent
   in the operation so far; the next backoff must also fit the
   deadline. *)
type verdict = Retry_after of float | Give_up

(* The least budget a retry needs left after its backoff to be worth
   firing: an attempt that would wake with (almost) no deadline
   remaining is doomed — give up now rather than burn a send on it.
   Scaled to the policy so short-deadline policies keep their edge. *)
let min_residual_ms policy =
  Float.max 1.0
    (Float.min policy.base_backoff_ms (0.01 *. policy.deadline_ms))

let next_step policy prng ~attempt ~elapsed_ms err =
  if (not (retryable err)) || attempt > policy.max_retries then Give_up
  else
    let wait =
      match err with
      | Verr.Busy { retry_after_ms } when retry_after_ms > 0.0 ->
          (* The server said when capacity frees; trust it over the
             computed schedule (no max_backoff clamp — the server knows
             its queue). Jitter up to +50% so synchronised victims of
             one shed wave do not return as one wave. *)
          retry_after_ms +. (Vsim.Prng.float prng *. (retry_after_ms /. 2.0))
      | _ -> backoff_ms policy prng ~attempt
    in
    if elapsed_ms +. wait +. min_residual_ms policy >= policy.deadline_ms then
      Give_up
    else Retry_after wait

(* The error surfaced when the loop gives up on a retryable failure:
   callers see a bounded [Unavailable], never a hang. Non-retryable
   errors pass through untouched. *)
let give_up ~attempts last =
  if retryable last then
    Verr.Unavailable { attempts; last = Verr.to_string last }
  else last
