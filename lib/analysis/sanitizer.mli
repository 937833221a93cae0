(** Behavioural sanitizer for the CP kernel's propagators.

    Drives a posted model through randomized
    mark / instantiate / propagate / undo cycles (the exact cycle the
    search performs) and checks the contracts every propagator must
    honour:

    - {b trail safety}: domains and trailed state are restored exactly
      by [Store.undo_to] (checked through snapshots and by replaying
      the same descent twice — hidden untrailed state diverges);
    - {b idempotence}: at a consistent fixpoint, re-running any
      propagator neither prunes nor fails;
    - {b no silent wipeout}: an empty domain always surfaces as
      [Store.Inconsistent];
    - {b subscription soundness}: a propagator only reads variables it
      subscribed to (tracked through {!Fdcp.Var.read_hook}).

    All randomness is seeded: a sweep is reproducible bit for bit. *)

open Fdcp

type finding =
  | Trail_corruption of { var : string; before : string; after : string }
  | Non_idempotent of {
      prop : string;
      var : string;
      before : string;
      after : string;
    }
  | Late_failure of { prop : string; message : string }
      (** re-running the propagator at a consistent fixpoint raised *)
  | Silent_wipeout of { var : string }
  | Unsubscribed_read of { prop : string; var : string }
  | Replay_divergence of { var : string; first : string; second : string }

val pp_finding : Format.formatter -> finding -> unit

val probe : ?steps:int -> ?seed:int -> Store.t -> finding list
(** [probe store] checks every propagator registered on [store]'s
    variables over [steps] randomized decision steps. The store is
    propagated (so its domains end at the root fixpoint, as a search
    would leave them) but every probe descent is undone. Propagator
    closures are temporarily wrapped for read tracking and restored on
    exit. *)

val random_models : ?models:int -> seed:int -> unit -> Store.t list
(** [models] (default 30) random CSPs spanning every propagator family
    (arith, element, alldiff, count, linear, movecost) with a pack model
    on top. Deterministic in [seed]. *)

val random_sweep : ?models:int -> ?steps:int -> seed:int -> unit -> finding list
(** {!probe} each of [random_models ?models ~seed ()]. *)
