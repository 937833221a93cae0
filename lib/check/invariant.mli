(** The checker's pluggable invariant catalogue.

    Every invariant restates a safety property of the cluster-wide
    context switch from first principles:

    - [Capacity]: at every intermediate state, each node's load plus
      the claims of in-flight actions stays within its capacity, beyond
      the relative-overload allowance the source configuration already
      had (paper section 4.2 / {!Entropy_analysis.Verifier}'s
      [Worsened_overload] rule applied mid-pool).
    - [Lifecycle]: every action is legal from its VM's Figure 2
      life-cycle state when it starts, and applies exactly when it
      completes.
    - [Precedence]: reconfiguration-graph ordering — an action on a VM
      only starts once every earlier action of the plan on the same VM
      is done, and pools act as barriers.
    - [Write_ahead]: at every crash cut, the journal's projected
      configuration equals the configuration the executor actually
      reached — terminal records are durable before their effects are
      observable, and the torn-tail rule recovers exactly the durable
      prefix under every byte cut of a torn frame.
    - [Resume_equiv]: every crash cut reconciles cleanly and the rebuilt
      resume plan, after the executed prefix, is equivalent to the
      original switch ({!Entropy_analysis.Verifier.verify_resume}).
    - [Cost_monotone]: the Table 1 cost of the executed prefix grows
      monotonically, never exceeds the plan's total, and reaches it
      exactly at switch end.
    - [Termination]: a completed switch ends exactly in the (normalized)
      target configuration, and a journal ends a switch only once it
      completed (or aborts it at a pool boundary after a failure); a
      switch with a journaled failure is degraded, not completed. *)

type id =
  | Capacity
  | Lifecycle
  | Precedence
  | Write_ahead
  | Resume_equiv
  | Cost_monotone
  | Termination

val all : id list

val to_string : id -> string
val of_string : string -> id option
val pp : Format.formatter -> id -> unit

type violation = {
  invariant : id;
  step : int;  (** witness-trace step index the violation was seen at *)
  detail : string;
}

val pp_violation : Format.formatter -> violation -> unit
