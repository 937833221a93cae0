(* Supervised action execution policy: per-attempt timeouts derived
   from the Table 1 cost model (timeout = factor x expected duration),
   bounded retries with exponential backoff in simulated time, and
   outcome classification. The supervisor is pure policy — the executor
   owns the clock and calls [next] after each attempt. *)

open Entropy_core

type policy = { timeout_factor : float; max_retries : int }

let default_policy = { timeout_factor = 3.; max_retries = 2 }
let backoff_base_s = 5.
let backoff_max_s = 60.

let make_policy ?(timeout_factor = default_policy.timeout_factor)
    ?(max_retries = default_policy.max_retries) () =
  if timeout_factor <= 0. then
    invalid_arg "Supervisor: timeout_factor must be positive";
  if max_retries < 0 then invalid_arg "Supervisor: max_retries < 0";
  { timeout_factor; max_retries }

let timeout_s p ~expected_s =
  if p.timeout_factor = infinity then infinity
  else p.timeout_factor *. expected_s

let backoff_s ~attempt =
  if attempt <= 0 then invalid_arg "Supervisor.backoff_s: attempt must be >= 1";
  Float.min backoff_max_s
    (backoff_base_s *. (2. ** float_of_int (attempt - 1)))

type attempt = Succeeded | Fault_injected | Attempt_timed_out

type outcome =
  | Completed of { retries : int }
  | Failed of { attempts : int }
  | Timed_out of { attempts : int }
  | Node_lost of { node : Node.id }

let next p ~attempts result =
  if attempts <= 0 then invalid_arg "Supervisor.next: attempts must be >= 1";
  match result with
  | Succeeded -> `Done (Completed { retries = attempts - 1 })
  | Fault_injected ->
    if attempts <= p.max_retries then `Retry (backoff_s ~attempt:attempts)
    else `Done (Failed { attempts })
  | Attempt_timed_out ->
    if attempts <= p.max_retries then `Retry (backoff_s ~attempt:attempts)
    else `Done (Timed_out { attempts })

let succeeded = function
  | Completed _ -> true
  | Failed _ | Timed_out _ | Node_lost _ -> false

let pp_outcome ppf = function
  | Completed { retries = 0 } -> Fmt.string ppf "ok"
  | Completed { retries } -> Fmt.pf ppf "ok after %d retries" retries
  | Failed { attempts } -> Fmt.pf ppf "failed (%d attempts)" attempts
  | Timed_out { attempts } -> Fmt.pf ppf "timed out (%d attempts)" attempts
  | Node_lost { node } -> Fmt.pf ppf "node N%d lost" node
