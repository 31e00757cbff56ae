(** JSONL wire format for the solver search {!Journal} — schema
    [argus.journal/v2]: a header line naming the schema, then one JSON
    object per event entry.  Round-trips every payload with full
    fidelity (including spans), so [argus explain] can reconstruct the
    search from the file alone.

    Decoders raise {!Decode.Decode_error} with a JSON-path-qualified
    message. *)

val schema : string

val entry_to_json : Journal.entry -> Json.t
val entry_of_json : Json.t -> Journal.entry

(** The compact header line (no trailing newline). *)
val header_line : unit -> string

(** Encode a full stream, header included. *)
val to_jsonl : Journal.entry list -> string

(** Decode a full stream; the first non-empty line must be a matching
    header. *)
val of_jsonl : string -> Journal.entry list
