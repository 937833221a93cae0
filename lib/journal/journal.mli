(** Append-only switch journal with in-memory and file backends.

    Records are stored as length-prefixed binary frames
    ({!Record.write_frame}). The file backend group-commits: appends
    accumulate in a reused buffer, and the batch is written and flushed
    to the OS immediately at every commit point ({!Record.commit_point}:
    terminal action records, pool commits, switch begin/end) and
    otherwise when it passes a byte or record threshold. Because commit
    points flush synchronously inside {!append}, a terminal record has
    reached the OS before its completion callback runs, so a controller
    kill loses at most a tail of [Action_started] records, which resume
    re-runs idempotently. Nothing is fsynced: a power loss can lose
    what the OS had not yet written to disk.

    {!load} implements the write-ahead-log torn-tail rule: replay stops
    at the first frame that is short, unrecognized, or fails its
    checksum, and everything after it is dropped. Journals in another
    format are not read: a pre-binary JSON-lines journal (first byte
    ['{']) and a binary journal whose first frame carries any
    {!Record.version} but this reader's, older or newer. {!load} and
    {!open_file} raise [Sys_error] on them and leave the file
    untouched.

    Each journal is one stream of frames with one {!Record.codec}, so a
    [Switch_begin] writes only what earlier frames did not carry. *)

type t

val mem : unit -> t
(** Volatile journal held in memory (as encoded binary frames, so its
    cost profile matches the file backend minus the I/O). *)

val open_file : string -> t
(** Open (creating or appending to) a file journal at the given path.
    The existing frames are decoded once; appends continue the stream
    with the codec that decode ended in. If the file ends in a torn or
    corrupt tail, it is truncated at the byte where its valid prefix
    ends, so new appends land inside the durable region; otherwise its
    bytes are left as they are, intact frames with an unknown record
    tag included. Raises [Sys_error] on a journal in another format. At
    most 64 KiB and 64 records sit in the group-commit buffer between
    commit points. The decode runs under the [journal.decode] span. *)

val reopen : string -> t * (Record.t list * int)
(** Continue an existing file journal, as a restart does: {!open_file}
    on it, together with what {!load} would answer (the records of its
    valid prefix and the dropped count, with {!load}'s diagnostics),
    from one decode of the file. Raises [Sys_error] when the file does
    not exist or cannot be read, and on a journal in another format,
    leaving it untouched. *)

val path : t -> string option
(** The backing path of a file journal; [None] for {!mem}. *)

val append : t -> Record.t -> unit
(** Append one record. On the file backend the record is buffered and
    the batch is flushed to the OS if the record is a
    {!Record.commit_point} or a threshold is hit — so every terminal
    record has reached the OS when [append] returns. *)

val flush : t -> unit
(** Write the group-commit buffer and flush it to the OS; no-op for
    {!mem}. *)

val length : t -> int
(** Records appended or loaded so far. *)

val next_switch : t -> int
(** One past the highest switch id among the records loaded or appended
    so far (0 on an empty journal) — the id the next switch appended to
    this journal takes. O(1): maintained by {!open_file} and {!append}. *)

val close : t -> unit
(** Flush and close the backing channel; no-op for {!mem}, idempotent. *)

val records : t -> Record.t list
(** All records, oldest first. For a file journal this flushes and
    re-reads the backing file, so it reflects exactly what a recovery
    after a crash at this instant would see. *)

val load : string -> Record.t list * int
(** Read a journal file: the valid prefix of records plus a count of
    dropped trailing data — [1] for a torn tail (frame boundaries inside
    the tail are unknowable), [0] otherwise. A frame that fails its
    checksum ends the valid prefix — later data is not trusted even if
    it parses. Raises [Sys_error] when the file cannot be read or is in
    another format. *)

val decode : string -> Record.t list * int
(** The decoder {!load} runs on a file's bytes, on bytes in memory: the
    valid prefix of records and the dropped count, as {!load} returns
    them, without its diagnostics. It does not check the format
    version. *)

val of_records : Record.t list -> t
(** An in-memory journal pre-populated with the given records — the
    test-suite hook for crash-at-a-record-boundary scenarios. *)
