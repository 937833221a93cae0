(* Crash-state exploration. At any explored state the journal trace is
   known exactly; what is durable after a crash is governed by the
   group-commit rules: everything up to the last commit-point record
   was flushed synchronously, and of the buffered [Action_started]
   tail, any prefix of whole frames may have reached the disk — plus a
   torn cut partway through the next frame.

   Every durable cut is resumed the way a real recovery would —
   [Recovery.replay], the write-ahead projection check, [reconcile],
   and [Verifier.verify_resume] on the rebuilt plan — and every torn
   cut is pushed through the frame decoder to confirm the torn-tail
   rule recovers exactly the durable prefix. *)

open Entropy_core
module Journal = Entropy_journal.Journal
module Record = Entropy_journal.Record
module Recovery = Entropy_journal.Recovery
module Repair = Entropy_fault.Repair
module Verifier = Entropy_analysis.Verifier

let fmt = Printf.sprintf

let violation invariant step detail = { Invariant.invariant; step; detail }

(* [(records, last_cp)]: the trace as an array and the index of its
   last commit-point record. Records 0..last_cp are always durable;
   later ones (all [Action_started]) sat in the group-commit buffer. *)
let split_trace state =
  let arr = Array.of_list (Model.records state) in
  let last_cp = ref (-1) in
  Array.iteri (fun i r -> if Record.commit_point r then last_cp := i) arr;
  (arr, !last_cp)

(* The durable records' bytes and the frame [next] is written as after
   them: encoded with the codec the durable prefix left, as the journal
   would encode it. *)
let encode_cut durable next =
  let codec = Record.codec () in
  let buf = Buffer.create 256 in
  List.iter (Record.write_frame codec buf) durable;
  (Buffer.contents buf, Record.to_frame codec next)

(* The torn-tail rule, checked with the journal's own decoder: the
   durable bytes followed by [cut] bytes of the next frame must decode
   back to exactly the durable records with one dropped tail. *)
let check_torn step durable (prefix, next_frame) cut =
  let decoded, dropped =
    Journal.decode (prefix ^ String.sub next_frame 0 cut)
  in
  let same =
    List.length decoded = List.length durable
    && List.for_all2 Record.equal decoded durable
  in
  if same && dropped = 1 then []
  else
    [
      violation Write_ahead step
        (fmt
           "torn frame cut at byte %d/%d recovered %d/%d records (dropped \
            %d, want 1)"
           cut (String.length next_frame) (List.length decoded)
           (List.length durable) dropped);
    ]

(* Resume a durable cut: replay, write-ahead projection, reconcile,
   and resume-plan equivalence. *)
let check_durable ctx (state : Model.state) durable =
  let step = state.nsteps in
  let vs = ref [] in
  let note v = vs := v :: !vs in
  (match Recovery.replay durable with
  | None ->
    note
      (violation Write_ahead step "no Switch_begin in the durable prefix")
  | Some st ->
    (if Model.want ctx Write_ahead then
       let projected = Recovery.projected_config st in
       if not (Configuration.equal projected state.config) then
         note
           (violation Write_ahead step
              "journal projection diverges from the reached configuration"));
    if Model.want ctx Resume_equiv then begin
      match Recovery.reconcile ~vjobs:ctx.vjobs ~state:st ~observed:state.config () with
      | exception Invalid_argument m ->
        note (violation Resume_equiv step (fmt "reconcile rejected: %s" m))
      | rec_ -> (
        if not (Repair.residue_ok rec_.Recovery.residue) then
          note
            (violation Resume_equiv step
               (Format.asprintf "non-clean residue %a" Repair.pp_residue
                  rec_.Recovery.residue));
        match rec_.Recovery.plan with
        | None ->
          note
            (violation Resume_equiv step
               "reconciliation produced no resume plan")
        | Some rplan -> (
          match
            Verifier.verify_resume ~vjobs:ctx.vjobs ~source:st.Recovery.source
              ~original:st.Recovery.plan ~observed:state.config
              ~target:rec_.Recovery.target ~frozen:rec_.Recovery.frozen_vms
              ~demand:st.Recovery.demand rplan
          with
          | [] -> ()
          | findings ->
            note
              (violation Resume_equiv step
                 (Format.asprintf "resume plan not equivalent: %a"
                    Verifier.pp_report findings))))
    end);
  List.rev !vs

let torn_offsets ~exhaustive len =
  if len <= 1 then []
  else if exhaustive then List.init (len - 1) (fun i -> i + 1)
  else
    let hdr = Record.header_size in
    List.sort_uniq compare
      (List.filter
         (fun c -> c >= 1 && c < len)
         [ 1; hdr - 1; hdr; hdr + 1; len / 2; len - 1 ])

(* All crash cuts of a state. Dedup ([seen]) is across states: two
   traces reaching the same durable record multiset replay and
   reconcile identically. [budget] bounds the recovery re-checks (torn
   decoder checks are cheap and uncounted). *)
let explore ctx state ~torn ~exhaustive ~seen ~budget ~crash_checks
    ~torn_cuts =
  if
    not
      (Model.want ctx Invariant.Write_ahead
      || Model.want ctx Invariant.Resume_equiv)
  then []
  else begin
    let arr, last_cp = split_trace state in
    let n = Array.length arr in
    let out = ref [] in
    (* the observed configuration, as a digest: recovery depends only on
       the durable record content and the observation *)
    let config_digest =
      let vm_count = Configuration.vm_count state.config in
      Hashtbl.hash
        (Array.init vm_count (fun vm -> Configuration.state state.config vm))
    in
    for kept = 0 to n - 1 - last_cp do
      let cut = last_cp + 1 + kept in
      let crash = { Witness.kept; torn = None } in
      let durable_key =
        (* the durable multiset determines recovery; the trace order of
           commuting records does not *)
        let b = Buffer.create 64 in
        Buffer.add_string b (fmt "%d|" config_digest);
        let tagged = ref [] in
        Array.iteri
          (fun i r ->
            if i < cut then
              match r with
              | Record.Action_started { pool; action; _ } ->
                tagged :=
                  fmt "s%d:%s" pool (Format.asprintf "%a" Action.pp action)
                  :: !tagged
              | Record.Action_done { pool; action; _ } ->
                tagged :=
                  fmt "d%d:%s" pool (Format.asprintf "%a" Action.pp action)
                  :: !tagged
              | Record.Action_failed { pool; action; _ } ->
                tagged :=
                  fmt "f%d:%s" pool (Format.asprintf "%a" Action.pp action)
                  :: !tagged
              | Record.Pool_committed { pool; _ } ->
                tagged := fmt "p%d" pool :: !tagged
              | Record.Switch_end _ -> tagged := "e" :: !tagged
              | Record.Switch_begin _ | Record.Submission _ | Record.Ladder _
                -> ())
          arr;
        List.iter
          (fun s ->
            Buffer.add_string b s;
            Buffer.add_char b ';')
          (List.sort String.compare !tagged);
        Buffer.contents b
      in
      (if not (Hashtbl.mem seen durable_key) then begin
         Hashtbl.add seen durable_key ();
         if !budget > 0 then begin
           decr budget;
           incr crash_checks;
           let durable = Array.to_list (Array.sub arr 0 cut) in
           List.iter
             (fun v -> out := (crash, v) :: !out)
             (check_durable ctx state durable)
         end
       end);
      (* torn cut partway into the first lost frame *)
      if torn && Model.want ctx Invariant.Write_ahead && cut < n then begin
        let durable = Array.to_list (Array.sub arr 0 cut) in
        let ((_, frame) as bytes) = encode_cut durable arr.(cut) in
        List.iter
          (fun c ->
            incr torn_cuts;
            List.iter
              (fun v -> out := ({ Witness.kept; torn = Some c }, v) :: !out)
              (check_torn state.nsteps durable bytes c))
          (torn_offsets ~exhaustive (String.length frame))
      end
    done;
    List.rev !out
  end

(* Replay one crash spec from a witness. *)
let check_spec ctx state (crash : Witness.crash) =
  let arr, last_cp = split_trace state in
  let n = Array.length arr in
  let kept = max 0 (min crash.kept (n - 1 - last_cp)) in
  let cut = last_cp + 1 + kept in
  let durable = Array.to_list (Array.sub arr 0 cut) in
  let vs = check_durable ctx state durable in
  match crash.torn with
  | Some c when cut < n ->
    let ((_, frame) as bytes) = encode_cut durable arr.(cut) in
    let c = max 1 (min c (String.length frame - 1)) in
    vs @ check_torn state.nsteps durable bytes c
  | _ -> vs
