(* Append-only journal over the binary frame format of [Record], with
   group commit on the file backend.

   Records accumulate in a reused [Buffer] and are written as a batch,
   then flushed from the channel to the OS: immediately at every commit
   point (terminal records, pool and switch boundaries — see
   [Record.commit_point]) and otherwise when the batch passes a byte or
   record threshold. Because commit points flush synchronously inside
   [append], a completion callback that runs after its terminal record
   was appended always finds that record in the file, so a controller
   kill cannot reorder the write-ahead log; it can only lose a tail of
   non-terminal [Action_started] records, which resume re-runs
   idempotently. Nothing is fsynced: a power loss can lose records the
   OS had not yet written to disk.

   Each stream of frames has one [Record.codec]: [Mem] keeps its own,
   and the file backend appends with the codec [open_file]'s decoder
   reached at the end of the valid prefix.

   Journals in another format are refused, not read: a pre-binary
   JSON-lines journal (first byte '{', never a valid frame magic) and a
   binary journal whose first frame carries any [Record.version] but
   this reader's, older or newer. Both [load] and [open_file] raise
   [Sys_error] on them before touching the file; a reader keeps no
   decoder for another format. *)

module Obs = Entropy_obs.Obs
module Metrics = Entropy_obs.Metrics

let m_appended = lazy (Metrics.counter "journal.appended")
let m_dropped = lazy (Metrics.counter "journal.dropped_records")

type file = {
  path : string;
  oc : out_channel;
  codec : Record.codec;  (* the stream's codec after its last frame *)
  buf : Buffer.t;  (* encoded records not yet written to [oc] *)
  mutable buffered : int;  (* records currently in [buf] *)
  mutable closed : bool;
}

type backend =
  | Mem of {
      mem_buf : Buffer.t;  (* binary frames, oldest first *)
      mem_codec : Record.codec;
    }
  | File of file

type t = {
  backend : backend;
  mutable length : int;
  mutable next_switch : int;  (* one past the highest switch id seen *)
}

(* group-commit bounds: between commit points, the buffer flushes once
   it holds this many bytes or records *)
let flush_bytes = 64 * 1024
let flush_records = 64

let mem () =
  {
    backend = Mem { mem_buf = Buffer.create 4096; mem_codec = Record.codec () };
    length = 0;
    next_switch = 0;
  }

(* daemon-level records answer switch -1 and leave the count alone *)
let advance next record = max next (Record.switch record + 1)

(* -- decoding ----------------------------------------------------------------- *)

(* [(records, dropped, valid)], with [valid] the byte offset where the
   valid prefix ends; [codec] ends in the writer's state after it *)
let decode_binary ~warn codec src =
  (* WAL semantics: the valid prefix ends at the first torn or corrupt
     frame; nothing after it is trusted. Frame boundaries inside the
     torn tail are unknowable, so the dropped count is at least 1. *)
  let rec go acc pos =
    match Record.read_frame codec src ~pos with
    | None -> (List.rev acc, 0, pos)
    | Some (Record.Frame (record, next)) -> go (record :: acc) next
    | Some (Record.Skipped (reason, next)) ->
      (* intact frame from a newer writer: diagnose and keep reading *)
      if warn then
        Log.warn (fun m -> m "skipping frame at byte %d: %s" pos reason);
      go acc next
    | Some (Record.Torn reason) ->
      if warn then
        Log.warn (fun m ->
            m "dropping torn/corrupt tail (%d bytes): %s"
              (String.length src - pos) reason);
      (List.rev acc, 1, pos)
  in
  go [] 0

let decode src =
  let records, dropped, _ = decode_binary ~warn:false (Record.codec ()) src in
  (records, dropped)

(* a journal in another format would otherwise decode as a torn tail at
   byte 0, and [open_file] would truncate it to nothing *)
let decode_contents codec path contents =
  let n = String.length contents in
  if n > 0 && contents.[0] = '{' then
    raise
      (Sys_error
         (path ^ ": JSON-lines journal (pre-binary format) is not supported"));
  (if n >= 3 && String.sub contents 0 2 = Record.magic then
     let v = Char.code contents.[2] in
     if v <> Record.version then
       raise
         (Sys_error
            (Printf.sprintf
               "%s: journal format version %d is %s than this reader's (%d) \
                and is not supported"
               path v
               (if v < Record.version then "older" else "newer")
               Record.version)));
  decode_binary ~warn:true codec contents

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  contents

(* -- lifecycle ---------------------------------------------------------------- *)

(* [load]'s diagnostics for a decoded file *)
let report_loaded path records dropped =
  if !Obs.enabled && dropped > 0 then
    Metrics.add (Lazy.force m_dropped) dropped;
  Log.info (fun m ->
      m "loaded %d record%s from %s%s" (List.length records)
        (if List.length records = 1 then "" else "s")
        path
        (if dropped = 0 then ""
         else Fmt.str " (torn tail dropped, >=%d record%s)" dropped
                (if dropped = 1 then "" else "s")))

(* A file journal continuing [contents], the bytes at [path], with the
   records and dropped count its one decode found. The decode runs under
   its own [journal.decode] span, so a trace of a restart tells it apart
   from the resume that reads its records. *)
let open_contents path contents =
  let codec = Record.codec () in
  let records, dropped, valid =
    Obs.span ~cat:"journal" ~name:"journal.decode" (fun () ->
        decode_contents codec path contents)
  in
  (* Truncate a torn tail before appending: new records written after
     torn garbage would sit beyond the durable prefix and never be
     replayed. Cutting the file at the end of its valid prefix makes
     reopen-after-crash append where recovery reads, and keeps the
     intact frames of a newer writer that the decoder skipped. *)
  let oc =
    if dropped > 0 then begin
      Log.warn (fun m ->
          m "truncating %s to its valid prefix (%d record%s kept)" path
            (List.length records)
            (if List.length records = 1 then "" else "s"));
      let oc =
        open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644
          path
      in
      output_substring oc contents 0 valid;
      flush oc;
      oc
    end
    else
      open_out_gen [ Open_append; Open_creat; Open_wronly; Open_binary ] 0o644
        path
  in
  let t =
    {
      backend =
        File
          {
            path;
            oc;
            codec;
            buf = Buffer.create 4096;
            buffered = 0;
            closed = false;
          };
      length = List.length records;
      next_switch = List.fold_left advance 0 records;
    }
  in
  (t, records, dropped)

let open_file path =
  let contents = if Sys.file_exists path then read_file path else "" in
  let t, _, _ = open_contents path contents in
  t

let reopen path =
  let t, records, dropped = open_contents path (read_file path) in
  report_loaded path records dropped;
  (t, (records, dropped))

let path t =
  match t.backend with Mem _ -> None | File { path; _ } -> Some path

let length t = t.length
let next_switch t = t.next_switch

let flush_file f =
  if Buffer.length f.buf > 0 then begin
    Buffer.output_buffer f.oc f.buf;
    Buffer.clear f.buf;
    f.buffered <- 0;
    flush f.oc
  end

let flush t =
  match t.backend with
  | Mem _ -> ()
  | File f -> if not f.closed then flush_file f

let append t record =
  (match t.backend with
  | Mem m -> Record.write_frame m.mem_codec m.mem_buf record
  | File f ->
    if f.closed then invalid_arg "Journal.append: journal is closed";
    Record.write_frame f.codec f.buf record;
    f.buffered <- f.buffered + 1;
    if
      Record.commit_point record
      || f.buffered >= flush_records
      || Buffer.length f.buf >= flush_bytes
    then flush_file f);
  t.length <- t.length + 1;
  t.next_switch <- advance t.next_switch record;
  if !Obs.enabled then Metrics.incr (Lazy.force m_appended);
  Log.debug (fun m -> m "append %a" Record.pp record)

let close t =
  match t.backend with
  | Mem _ -> ()
  | File f ->
    if not f.closed then (
      flush_file f;
      f.closed <- true;
      close_out f.oc)

let load path =
  let records, dropped, _ =
    decode_contents (Record.codec ()) path (read_file path)
  in
  report_loaded path records dropped;
  (records, dropped)

let records t =
  match t.backend with
  | Mem m ->
    fst (decode (Buffer.contents m.mem_buf))
  | File f ->
    if not f.closed then flush_file f;
    fst (load f.path)

let of_records rs =
  let t = mem () in
  List.iter (fun r -> append t r) rs;
  t
