(** The observation-file format of Fig. 7.

    Histories are grouped into [<observation>] sections; all histories in a
    section exhibit the same operation sequences for each thread and differ
    only in the interleaving. Each section lists its threads ([<thread
    id="A">1 2</thread>], a blocked final operation carrying a [B] suffix),
    its operations ([<op id="1" name="Add" value="200" result="unit"/>]; a
    blocking operation has no [result]) and one [<history>] element per
    interleaving ([1[ ]1 2[ ]2], stuck histories ending in [#]). Sections
    are sorted by their thread sequences; within a section the histories
    keep the order in which the observation set first recorded them, so
    {!observation_of_histories} over a parsed file rebuilds the witness
    index exactly, probe order included.

    One deliberate deviation from Fig. 7: operation arguments and results
    are XML attributes rather than element text (the paper's
    [<op id="1" name="Add">value="200"</op>]), which round-trips robustly
    for string-valued arguments. *)

(** [root_attrs] (default [[]]) are attached to the [<observationset>] root
    element — {!Obs_cache} stamps its format version and configuration
    fingerprint there, with the digest of the content. They do not affect
    the histories and are ignored by the parsers below; read them off the
    parsed {!Xml.t}. *)
val to_xml : ?root_attrs:(string * string) list -> Observation.t -> Xml.t

val to_string : ?root_attrs:(string * string) list -> Observation.t -> string
val save : ?root_attrs:(string * string) list -> path:string -> Observation.t -> unit
(** Written through {!Lineup_observe.Atomic_file}: a reader never sees a
    partial file. *)

(** [of_string s] parses an observation file back into its serial
    histories. Raises [Invalid_argument] on malformed input. *)
val of_string : string -> Lineup_history.Serial_history.t list

val load : path:string -> Lineup_history.Serial_history.t list

(** {!of_string} on an already parsed document. *)
val of_xml : Xml.t -> Lineup_history.Serial_history.t list

(** Rebuild an observation set, reporting nondeterminism like
    [Observation.add]. *)
val observation_of_histories :
  Lineup_history.Serial_history.t list ->
  (Observation.t,
   Lineup_history.Serial_history.t * Lineup_history.Serial_history.t)
  result

(** [group_to_xml ~key ~interleavings] renders one [<observation>] section:
    [key] gives each thread's operation sequence, [interleavings] the token
    strings of its histories. Exposed for {!Report}. *)
val group_to_xml :
  key:(int * (Lineup_history.Invocation.t * Lineup_value.Value.t option) list) list ->
  interleavings:string list ->
  Xml.t

(** Interleaving token string of an arbitrary history, with operation ids
    assigned per-thread as in the section's op table (not call order). *)
val interleaving_tokens : Lineup_history.History.t -> string
