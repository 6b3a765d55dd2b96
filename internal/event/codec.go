package event

import (
	"encoding/json"
	"fmt"
	"sort"
)

// decoders maps every record kind to its encoding/json decoder, the
// fallback for lines DecodeLineFast does not read.
var decoders = map[Kind]func([]byte) (Event, error){}

// register wires one concrete record type's kind to its decoder.
func register[T Event](kind Kind) {
	decoders[kind] = func(data []byte) (Event, error) {
		var v T
		if err := json.Unmarshal(data, &v); err != nil {
			return nil, err
		}
		return v, nil
	}
}

func init() {
	register[Login](KindLogin)
	register[PasswordChanged](KindPasswordChanged)
	register[RecoveryChanged](KindRecoveryChanged)
	register[TwoSVEnrolled](KindTwoSVEnrolled)
	register[MessageSent](KindMessageSent)
	register[Search](KindSearch)
	register[FolderOpened](KindFolderOpened)
	register[ContactsViewed](KindContactsViewed)
	register[FilterCreated](KindFilterCreated)
	register[ReplyToSet](KindReplyToSet)
	register[MassDeletion](KindMassDeletion)
	register[SpamReported](KindSpamReported)
	register[PageCreated](KindPageCreated)
	register[PageHit](KindPageHit)
	register[PageDetected](KindPageDetected)
	register[PageTakedown](KindPageTakedown)
	register[LureSent](KindLureSent)
	register[CredentialPhished](KindCredentialPhished)
	register[HijackStarted](KindHijackStarted)
	register[HijackAssessed](KindHijackAssessed)
	register[HijackEnded](KindHijackEnded)
	register[ScamReply](KindScamReply)
	register[MoneyWired](KindMoneyWired)
	register[NotificationSent](KindNotificationSent)
	register[ClaimFiled](KindClaimFiled)
	register[ClaimAttempt](KindClaimAttempt)
	register[ClaimResolved](KindClaimResolved)
	register[Remission](KindRemission)
}

// RegisteredKinds returns every kind with a registered decoder, sorted —
// the complete NDJSON vocabulary. Tests use it to ensure a new record
// type cannot ship without codec (and so dump/load) coverage.
func RegisteredKinds() []Kind {
	out := make([]Kind, 0, len(decoders))
	for k := range decoders {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Decode reconstructs a concrete record from its kind and JSON payload.
func Decode(kind Kind, data []byte) (Event, error) {
	dec, ok := decoders[kind]
	if !ok {
		return nil, fmt.Errorf("event: unknown kind %q", kind)
	}
	return dec(data)
}
