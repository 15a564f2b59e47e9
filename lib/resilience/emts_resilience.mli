(** Crash-safety substrate: durable atomic writes, checksummed
    append-only logs, a minimal JSON codec for durable records, and
    cooperative shutdown.

    The paper's evaluation is a multi-hour campaign (932 PTG instances
    across two platforms and six algorithms); this module is what lets
    the harness survive a crash, an OOM kill, or an operator's Ctrl-C
    without losing completed work.  Four facilities:

    - {b atomic writes} ({!write_file}) — write to [path.tmp], flush,
      [fsync], rename: readers see either the old or the complete new
      file, never a torn one, and a raising producer can neither leak a
      channel nor clobber the previous file;
    - {b checksummed JSONL} ({!Jsonl}) — an append-only line log with a
      CRC-32 per line and a loader that truncates at the first corrupt
      or partial line instead of failing, which is exactly the failure
      shape of a process killed mid-append;
    - {b checksummed single records} ({!Checksummed}) — one whole-file
      checksummed payload, written atomically; the EA checkpoint
      format builds on it;
    - {b graceful shutdown} ({!Shutdown}) — SIGINT/SIGTERM set an
      atomic stop flag that long-running loops poll at unit boundaries
      (EA generations, campaign cells); the first signal finishes the
      current unit and flushes state, the second exits immediately.

    The module deliberately depends on nothing but [unix], so every
    layer of the stack (serialisers, the EA, the campaign harness) can
    use it. *)

(** {1 Errors} *)

(** The shared diagnostic type for every loader in the stack
    (checkpoints, journals, [.ptg] files, platform and model files):
    a file, an optional line, and a one-line message — never a raw
    exception escape. *)
module Error : sig
  type t = { file : string; line : int option; msg : string }

  val make : ?line:int -> file:string -> string -> t

  val to_string : t -> string
  (** ["file: line N: msg"], or ["file: msg"] when no line applies. *)
end

exception Interrupted
(** Raised by campaign drivers at a unit boundary after {!Shutdown}
    requested a stop.  All completed units are already on disk when it
    is raised. *)

(** {1 Durable atomic writes} *)

val write_file : path:string -> (out_channel -> unit) -> unit
(** [write_file ~path f] runs [f] on a channel writing [path ^ ".tmp"],
    then flushes, [fsync]s, closes, and renames over [path] (also
    syncing the containing directory, best-effort).  If [f] raises, the
    channel is closed, the temporary file is removed, the previous
    [path] content is untouched, and the exception is re-raised with
    its backtrace.  Raises [Sys_error] if the path is unwritable. *)

val write_string : path:string -> string -> unit
(** [write_string ~path s] = [write_file ~path (fun oc ->
    output_string oc s)]. *)

val set_write_fault : (string -> unit) option -> unit
(** Install (or with [None] remove) a fault hook called with the
    destination path at the start of every {!write_file}.  An exception
    it raises aborts the write before the temporary file exists, so the
    previous [path] content is untouched.  Used by the fault-injection
    layer ([Emts_fault.arm]) to simulate disk-full / I/O errors;
    production code never sets it. *)

(** {1 CRC-32} *)

module Crc32 : sig
  val string : string -> int32
  (** CRC-32 (IEEE 802.3, the zlib polynomial) of the whole string.
      [string "123456789" = 0xCBF43926l]. *)

  val to_hex : int32 -> string
  (** Fixed-width lowercase hex, 8 characters. *)
end

(** {1 Minimal JSON}

    Just enough JSON for durable records (journal lines, checkpoints):
    objects, arrays, strings, finite doubles, booleans, null.
    Non-finite floats are encoded as the strings ["inf"], ["-inf"],
    ["nan"] — fitness values can legitimately be [infinity] (early
    rejection) and must round-trip.  Output is compact (single line),
    so a value is always a valid {!Jsonl} payload. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact rendering; contains no newline.  Finite numbers print
      with 17 significant digits, so floats round-trip exactly. *)

  val of_string : string -> (t, string) result

  val float : float -> t
  (** [Num x] for finite [x]; [Str "inf" | "-inf" | "nan"] otherwise. *)

  val member : string -> t -> t option
  (** Field lookup in an [Obj]; [None] on missing field or non-object. *)

  val to_float : t -> (float, string) result
  (** Accepts [Num] and the non-finite string encodings of {!float}. *)

  val to_int : t -> (int, string) result
  val to_str : t -> (string, string) result
  val to_list : t -> (t list, string) result
  val to_obj : t -> ((string * t) list, string) result
end

(** {1 Checksummed append-only log (JSONL)} *)

module Jsonl : sig
  type writer

  val open_append : string -> writer
  (** Open (creating if missing) for appending.  Raises [Sys_error] on
      an unwritable path. *)

  val append : writer -> string -> unit
  (** Append one record as ["%08x <payload>\n"] (CRC-32 of the payload
      in hex), then flush and [fsync]: once [append] returns, the
      record survives a crash.  The payload must not contain a newline
      (raises [Invalid_argument]). *)

  val close : writer -> unit
  (** Idempotent. *)

  type loaded = {
    records : string list;  (** valid payloads, in file order *)
    dropped : int;
        (** trailing lines discarded because the first of them was
            corrupt or partial (0 = clean file) *)
  }

  val load : string -> (loaded, Error.t) result
  (** Read the log, verifying each line's checksum.  At the first
      corrupt or partial line, stop and drop it and everything after it
      — the well-formed prefix is returned rather than an error,
      because a torn tail is the expected result of a crash
      mid-append.  [Error] only for I/O failures (missing file,
      unreadable). *)

  val rewrite : string -> string list -> unit
  (** Atomically replace the log with exactly [records] (used to drop a
      corrupt tail before resuming appends). *)
end

(** {1 Checksummed single-record files} *)

module Checksummed : sig
  val save : path:string -> string -> unit
  (** Write [payload] (newline-free, raises [Invalid_argument]
      otherwise) as a single checksummed line, atomically and durably
      ({!write_file}). *)

  val load : path:string -> (string, Error.t) result
  (** Read back the payload, verifying the checksum.  A missing file,
      a checksum mismatch, a malformed frame, or a record without the
      trailing newline {!save} writes (a truncated file) is an [Error]
      naming the file. *)
end

(** {1 Graceful shutdown} *)

module Shutdown : sig
  val install : unit -> unit
  (** Install SIGINT and SIGTERM handlers (idempotent).  First signal:
      set the stop flag and print a note to stderr — loops polling
      {!requested} finish their current unit, flush journal /
      checkpoint / trace sinks, and exit with {!exit_interrupted}.
      Second signal: exit immediately (exit code
      [exit_interrupted + 1]) without running [at_exit].  Only CLI
      entry points with stop-aware loops should install; libraries
      never do. *)

  val requested : unit -> bool
  (** Atomic read of the stop flag; safe from any domain. *)

  val check : unit -> unit
  (** Raise {!Interrupted} if {!requested}. *)

  val request : unit -> unit
  (** Set the flag programmatically (tests; also lets an embedding
      service stop a campaign without signals). *)

  val reset : unit -> unit
  (** Clear the flag (tests). *)

  val exit_interrupted : int
  (** Exit code for a graceful, resumable interruption: 130
      (128 + SIGINT, the shell convention). *)
end
