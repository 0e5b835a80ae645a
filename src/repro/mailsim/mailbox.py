"""Simulated e-mail infrastructure (§3.2 and §4.2.3).

The paper's persona inbox plays two roles: it receives account-confirmation
links needed to finish sign-up on 68 sites, and it accumulates first-party
marketing mail (2,172 inbox messages, 141 spam) whose sender domains the
paper audits — finding *no* mail from the PII-receiving third parties,
which supports the tracking (rather than e-mail marketing) interpretation
of the leakage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

FOLDER_INBOX = "inbox"
FOLDER_SPAM = "spam"

KIND_CONFIRMATION = "confirmation"
KIND_MARKETING = "marketing"


@dataclass(frozen=True)
class EmailMessage:
    """One received message."""

    sender_domain: str
    recipient: str
    subject: str
    kind: str
    folder: str = FOLDER_INBOX
    confirm_url: Optional[str] = None


class Mailbox:
    """The persona's mail account."""

    def __init__(self, address: str) -> None:
        self.address = address
        self._messages: List[EmailMessage] = []

    def deliver(self, message: EmailMessage) -> None:
        if message.recipient != self.address:
            raise ValueError("message for %r delivered to %r"
                             % (message.recipient, self.address))
        self._messages.append(message)

    def deliver_confirmation(self, site_domain: str, confirm_url: str) -> None:
        self.deliver(EmailMessage(
            sender_domain=site_domain, recipient=self.address,
            subject="Confirm your account at %s" % site_domain,
            kind=KIND_CONFIRMATION, confirm_url=confirm_url))

    def deliver_marketing(self, site_domain: str, count: int = 1,
                          spam: bool = False) -> None:
        folder = FOLDER_SPAM if spam else FOLDER_INBOX
        for index in range(count):
            self.deliver(EmailMessage(
                sender_domain=site_domain, recipient=self.address,
                subject="Offers from %s (#%d)" % (site_domain, index + 1),
                kind=KIND_MARKETING, folder=folder))

    def absorb(self, other: "Mailbox") -> None:
        """Append every message of ``other`` (same address) to this box.

        Used when merging per-shard crawl results back into one mailbox;
        messages keep their relative order.  Raises :class:`ValueError`
        if the two mailboxes belong to different addresses.
        """
        if other.address != self.address:
            raise ValueError("cannot merge mailbox for %r into %r"
                             % (other.address, self.address))
        self._messages.extend(other._messages)

    # -- queries ---------------------------------------------------------

    def messages(self, folder: Optional[str] = None,
                 kind: Optional[str] = None) -> List[EmailMessage]:
        return [m for m in self._messages
                if (folder is None or m.folder == folder)
                and (kind is None or m.kind == kind)]

    def since(self, count: int) -> List[EmailMessage]:
        """The messages delivered after the first ``count``, in order."""
        return self._messages[count:]

    def latest_confirmation(self, site_domain: str) -> Optional[EmailMessage]:
        """Most recent confirmation mail from a site, if any."""
        for message in reversed(self._messages):
            if message.kind == KIND_CONFIRMATION and \
                    message.sender_domain == site_domain:
                return message
        return None

    def sender_domains(self, folder: Optional[str] = None) -> List[str]:
        """Distinct sender domains (insertion order)."""
        seen: List[str] = []
        for message in self.messages(folder):
            if message.sender_domain not in seen:
                seen.append(message.sender_domain)
        return seen

    def counts(self) -> Dict[str, int]:
        """{'inbox': n, 'spam': m} message counts."""
        return {
            FOLDER_INBOX: len(self.messages(FOLDER_INBOX)),
            FOLDER_SPAM: len(self.messages(FOLDER_SPAM)),
        }

    def __len__(self) -> int:
        return len(self._messages)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mailbox):
            return NotImplemented
        return (self.address == other.address
                and self._messages == other._messages)


class ConfirmationMailHook:
    """Pickleable ``MailHook`` delivering confirmation links to a mailbox.

    The crawl engine needs its mail hook to survive checkpoint
    serialization, which a closure over the mailbox cannot; this small
    callable object can.
    """

    def __init__(self, mailbox: Mailbox) -> None:
        self.mailbox = mailbox

    def __call__(self, site_domain: str, email: str, url: str) -> None:
        self.mailbox.deliver_confirmation(site_domain, url)
