(** CHESS-style conformance runs of the real discrete-event executor.

    The plan executes on a real {!Vsim.Cluster} + {!Vsim.Executor}; the
    engine's schedule hook ({!Vsim.Engine.set_chooser}) enumerates
    tie-break orders of simultaneous events depth-first over the choice
    tree, bounded by [max_runs]. Each run's emitted journal records must
    be a path of the model ({!Model.accepts}, which evaluates the
    invariant catalogue along them), and the configuration the model
    reaches must be the cluster's at the end. *)

type outcome = {
  runs : int;
  decision_points : int;
  complete : bool;  (** the whole choice tree fit in the run budget *)
  violations : (Invariant.violation * int list) list;
      (** violation plus the run's tie-break choices, root first *)
}

val run : Model.ctx -> max_runs:int -> outcome

val conforms :
  Model.ctx -> Entropy_journal.Record.t list ->
  final:Entropy_core.Configuration.t -> Invariant.violation list
(** The gate on one fault-free run: its records (journal order, after
    the [Switch_begin]) must be accepted by {!Model.accepts} with no
    action failed (termination: the model accepts a failure, and an
    abort after one, only from a faulty cluster, and a run injects no
    fault) and reach [final], the cluster's configuration
    (write-ahead). *)
